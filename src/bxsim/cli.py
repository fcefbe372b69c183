"""Command-line front end: equilibrium solving, simulation, adaptation runs,
and the two experiment reproductions, all emitting plot-ready CSV.

Exit codes: 0 success, 2 invalid scenario/arguments (an argument that a
command does not take, reported with its usage line, a count too large to
allocate, or an output that fails as it is written, too), 3 equilibrium
nonexistence (negative rates, or a coded game of 3 or more files whose
aggregate system is singular: two rows with c = d, or a zero denominator in
its closed form), 4 runtime stall, diverging adaptation or numeric overflow.
Every output is opened before any work and kept only once all are written,
and a failed command leaves none of them.  Every command is deterministic
given its config and seeds; reruns produce byte-identical CSV in the csv
module's default dialect (comma, ``\r\n``, no field ever quoted): one ``%``
template per row kind (the ``*_ROW`` constants), floats at ``%.9g``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import fields
from itertools import product
from pathlib import Path

import numpy as np

from . import adapt, equilibrium, simulate
from .errors import NoEquilibriumError, ScenarioError, StallError
from .model import Scenario, StrategyProfile, atomic_open, load_scenario


NODE_COLUMNS = "%.9g,%.9g,%d"  # w, g, needs


def node_columns(s: Scenario) -> list[str]:
    """Per node, its w, g and needs columns as one CSV string."""
    return format_rows(NODE_COLUMNS, s.w.tolist(), s.g.tolist(), s.needs.tolist())


def format_rows(template: str, *columns) -> list[str]:
    """``template`` filled from each position of the ``columns`` in turn."""
    return [template % row for row in zip(*columns)]


def write_csv(out: atomic_open, header: list[str], lines: list[str]) -> None:
    """Write the header and the preformatted ``lines`` to ``out``, any object
    with a text ``write`` (``main`` passes the ``atomic_open`` output)."""
    out.write(",".join(header) + "\r\n")
    out.write("".join(lines))


def check_nonnegative(value: int, noun: str) -> int:
    """``value``, or ValueError naming it when it is negative."""
    if value < 0:
        raise ValueError(f"{noun} {value} is negative; {noun}s are nonnegative integers")
    return value


def parse_list(text: str, noun: str) -> list[int]:
    """Comma-separated integers; 'a-b' expands to the inclusive range.  An
    item that is not an integer or a range of two, an empty range, a negative
    value, or a value given twice, is an error naming ``noun``."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        cut = part.find("-", 1)  # a range's dash; a leading one is a sign
        try:
            lo, hi = (int(part[:cut]), int(part[cut + 1 :])) if cut > 0 else (int(part),) * 2
        except ValueError:
            raise ValueError(f"{noun} list {text!r} must be comma-separated integers or ranges a-b of them") from None
        if hi < lo:
            raise ValueError(f"empty {noun} range {part}")
        out.extend(range(check_nonnegative(lo, noun), hi + 1))
    if len(set(out)) < len(out):
        raise ValueError(f"{noun} list {text} names a {noun} twice")
    return out


def gen_rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, purpose])))


def gen_groups(sizes: list[int], w_lo: float, w_hi: float, rng: np.random.Generator) -> Scenario:
    """sizes[f] nodes needing file f, with g = 1 and w drawn uniformly from
    [w_lo, w_hi], file by file."""
    if min(sizes, default=0) < 0 or not 0 < w_lo <= w_hi < float("inf"):
        raise ValueError("need group sizes >= 0 and finite 0 < w_lo <= w_hi")
    w = rng.uniform(w_lo, w_hi, size=sum(sizes))
    return Scenario(files=len(sizes), w=w, g=np.ones(w.size), needs=np.repeat(np.arange(len(sizes)), sizes))


SCENARIO_JSON = '%s\n  %s: {\n    "files": %d,\n    "nodes": [%s\n    ]\n  }'  # separator, key, files, nodes
NODE_JSON = '\n      {\n        "g": %r,\n        "needs": %d,\n        "w": %r\n      }'  # g, needs, w


def dump_scenarios(out: atomic_open, scenarios: dict[str, Scenario]) -> None:
    """Write the generated scenarios to ``out``, any object with a text ``write``, for
    reproducibility: the bytes of ``json.dump(..., sort_keys=True, indent=2)`` on each one's
    scenario config form, since every built scenario has nodes and finite costs (``%r`` is
    json's form of a finite float)."""
    out.write("{")
    for i, key in enumerate(sorted(scenarios)):
        s = scenarios[key]
        nodes = ",".join(format_rows(NODE_JSON, s.g.tolist(), s.needs.tolist(), s.w.tolist()))
        out.write(SCENARIO_JSON % ("," if i else "", json.dumps(key), s.files, nodes))
    out.write("\n}\n")


NE_HEADER = ["kind", "node", "context", "w", "g", "needs", "value"]
NE_AGGREGATE_ROW = "Gamma,,%d,,,,%.9g\r\n"
NE_DEGENERATE_ROW = "degenerate,,,,,,%d\r\n"
NE_GAMMA_ROW = "gamma,%d,,%s,%.9g\r\n"
NE_LAMBDA_ROW = "lambda,%d,%d,%s,%.9g\r\n"


def load_equilibrium(args) -> tuple[Scenario, StrategyProfile]:
    """The --config scenario and its equilibrium, which must be nonnegative:
    of the coded game with --coded, else of the plain two-file game at
    --alpha, which only that game has."""
    s = load_scenario(args.config)
    profile = equilibrium.coded_equilibrium(s) if args.coded else equilibrium.two_file_equilibrium(s, alpha=args.alpha)
    return s, equilibrium.require_nonnegative(profile)


def cmd_ne(args) -> tuple[list[str], list[str]]:
    s, profile = load_equilibrium(args)
    lines: list[str] = []
    if args.coded:
        lines += format_rows(NE_AGGREGATE_ROW, range(s.files), equilibrium.coded_aggregates(s).tolist())
        lines.append(NE_DEGENERATE_ROW % (s.files == 2))
    columns = node_columns(s)
    lines += format_rows(NE_GAMMA_ROW, range(s.n_nodes), columns, profile.gamma.tolist())
    nodes, files = np.nonzero(np.arange(s.files) != s.needs[:, None])  # sorted (node, held file) pairs
    values, nodes = profile.lam[nodes, files].tolist(), nodes.tolist()
    lines += format_rows(NE_LAMBDA_ROW, nodes, files.tolist(), [columns[n] for n in nodes], values)
    return NE_HEADER, lines


POA_HEADER = ["kind", "node", "w", "g", "needs", "avg_cost", "transmit_prob", "poa", "throughput", "total_duration"]
POA_SYSTEM_ROW = "system,,,,,,,%.9g,%.9g,%.9g\r\n"
POA_NODE_ROW = "node,%d,%s,%.9g,%.9g,%.9g,,\r\n"


def cmd_poa(args) -> tuple[list[str], list[str]]:
    s = load_scenario(args.config)
    system = (equilibrium.poa_system(s), equilibrium.throughput_at_ne(s), equilibrium.ne_round_duration(s))
    costs = equilibrium.node_costs_at_ne(s)  # avg_cost, transmit_prob, poa
    lines = [POA_SYSTEM_ROW % system]
    lines += format_rows(POA_NODE_ROW, range(s.n_nodes), node_columns(s), *(c.tolist() for c in costs))
    return POA_HEADER, lines


SIM_HEADER = ["seed", "kind", "node", "w", "g", "needs", "downloads", "uploads", "avg_cost", "throughput"]
SIM_NODE_ROW = "%d,node,%d,%s,%d,%d,%.9g,\r\n"
SIM_SYSTEM_ROW = "%d,system,,,,,,,,%.9g\r\n"


def cmd_simulate(args) -> tuple[list[str], list[str]]:
    seeds = parse_list(args.seeds, "seed")  # before the solve, so that a bad seed list is named first
    if args.trace and len(seeds) > 1:
        raise ValueError("--trace requires a single seed")
    if args.rounds < 1:
        raise ValueError("rounds must be >= 1")
    s, profile = load_equilibrium(args)
    lines: list[str] = []
    columns = node_columns(s)
    # One seed at a time: unequal groups take the per-round walk, which
    # batches nothing across seeds, and lockstep play measured slower there.
    for seed in seeds:
        metrics = simulate.run_simulation(s, profile, args.rounds, seed, args.trace)
        per_node = ([metrics.rounds] * s.n_nodes, metrics.uploads.tolist(), metrics.avg_total_cost().tolist())
        lines += format_rows(SIM_NODE_ROW, [seed] * s.n_nodes, range(s.n_nodes), columns, *per_node)
        lines.append(SIM_SYSTEM_ROW % (seed, metrics.per_node_throughput()))
    return SIM_HEADER, lines


def adapt_config(args) -> adapt.AdaptConfig:
    return adapt.AdaptConfig(**{knob.name: getattr(args, knob.name) for knob in fields(adapt.AdaptConfig)})


ADAPT_HEADER = ["seed", "epoch", "delta", "observed_inv_that_a", "observed_inv_that_b", "throughput"]
ADAPT_ROW = "%d,%d,%.9g,%.9g,%.9g,%.9g\r\n"
ADAPT_NODE_HEADER = ["seed", "epoch", "node", "that_guess", "rate"]
ADAPT_NODE_ROW = "%d,%d,%d,%.9g,%.9g\r\n"


def cmd_adapt(args) -> tuple[list[str], list[str]]:
    seeds = parse_list(args.seeds, "seed")
    s = load_scenario(args.config)
    cfg = adapt_config(args)
    run = adapt.run_adaptive_simulation([s] * len(seeds), cfg, seeds)
    epochs = range(cfg.updates + 1)
    deltas = [0.0] + [cfg.delta(k) for k in epochs[1:]]  # the step of the update before each epoch
    keys = zip(*product(seeds, epochs))  # seed, epoch
    lines = format_rows(ADAPT_ROW, *keys, deltas * len(seeds), *run.observed.reshape(-1, 3).T.tolist())
    if args.per_node_out:
        keys = zip(*product(seeds, epochs, range(s.n_nodes)))  # seed, epoch, node
        node_lines = format_rows(ADAPT_NODE_ROW, *keys, *run.node_states.reshape(-1, 2).T.tolist())
        write_csv(args.per_node_out, ADAPT_NODE_HEADER, node_lines)
    return ADAPT_HEADER, lines


FIG2_HEADER = ["epoch", "throughput_mean", "throughput_std", "ne_throughput"]
FIG2_ROW = "%d,%.9g,%.9g,%.9g\r\n"


def cmd_fig2(args) -> tuple[list[str], list[str]]:
    seeds = parse_list(args.seeds, "seed")
    generated = [gen_groups([args.group_size] * 2, args.w_lo, args.w_hi, gen_rng(seed, 1)) for seed in seeds]
    cfg = adapt_config(args)
    throughput = adapt.run_adaptive_simulation(generated, cfg, seeds).observed[..., 2]  # (seeds, epochs)
    # Unchecked, unlike fig3: a game with no nonnegative equilibrium still gets its closed form's throughput.
    ne_mean = float(np.mean([equilibrium.throughput_at_ne(s) for s in generated]))
    # One 1-d mean and std per epoch: a reduction along axis 0 adds in
    # another order and can differ in the last bits.
    lines = [
        FIG2_ROW % (epoch, np.mean(throughput[:, epoch]), np.std(throughput[:, epoch]), ne_mean)
        for epoch in range(cfg.updates + 1)
    ]
    dump_scenarios(args.scenarios_out, {f"seed_{seed}": s for seed, s in zip(seeds, generated)})
    return FIG2_HEADER, lines


FIG3_HEADER = ["num_files", "coded_throughput", "baseline_throughput", "simulated_throughput"]
FIG3_ROW = "%d,%.9g,%.9g,%.9g\r\n"
FIG3_ANALYTIC_ROW = "%d,%.9g,%.9g,\r\n"  # without --rounds


def cmd_fig3(args) -> tuple[list[str], list[str]]:
    check_nonnegative(args.seed, "seed")
    file_counts = parse_list(args.files, "file count")  # distinct: one scenario dump entry each
    if args.rounds is not None and args.rounds < 1:  # before any solve, as in simulate
        raise ValueError("rounds must be >= 1")
    lines: list[str] = []
    scenarios: dict[str, Scenario] = {}
    for f in file_counts:
        s = gen_groups([args.group_size] * f, args.w_lo, args.w_hi, gen_rng(args.seed, f))
        scenarios[f"files_{f}"] = s
        profile = equilibrium.require_nonnegative(equilibrium.coded_equilibrium(s))
        analytic = equilibrium.coded_throughput(s)
        if args.rounds is not None:
            metrics = simulate.run_simulation(s, profile, args.rounds, seed=args.seed)
            lines.append(FIG3_ROW % (f, analytic, 1.0 / f, metrics.per_node_throughput()))
        else:
            lines.append(FIG3_ANALYTIC_ROW % (f, analytic, 1.0 / f))
    dump_scenarios(args.scenarios_out, scenarios)
    return FIG3_HEADER, lines


@functools.cache  # one parser per process: building it costs far more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bxsim",
        description="Equilibrium analysis and simulation of the broadcast exchange protocol",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    list_help = "comma-separated nonnegative integers and ranges a-b of them"  # parse_list's grammar

    def add_command(name, func, help, w_hi=None):
        """A command reads its game from --config, or, given its default
        --w-hi, generates it from a cost draw and dumps it beside --out.
        main reports an argument that it does not take with its usage."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)  # so each option has one spelling
        p.set_defaults(func=func, parser=p, dumps=w_hi is not None)
        if w_hi is None:
            p.add_argument("--config", required=True, help="scenario config (JSON)")
        else:
            p.add_argument("--group-size", type=int, default=10)
            p.add_argument("--w-lo", type=float, default=1.0)
            p.add_argument("--w-hi", type=float, default=w_hi)
        return p

    def add_adapt_knobs(p):
        for knob in fields(adapt.AdaptConfig):
            p.add_argument("--" + knob.name.replace("_", "-"), type=type(knob.default), default=knob.default)

    def add_game(p):
        game = p.add_mutually_exclusive_group()  # the coded game has no alpha
        game.add_argument("--alpha", type=float, default=0.5, help="initiation share of group 0 (plain two-file game)")
        game.add_argument("--coded", action="store_true", help="the network-coded game")

    add_game(add_command("ne", cmd_ne, "closed-form equilibrium rates"))

    add_command("poa", cmd_poa, "prices of anarchy and node costs (two-file)")

    p_sim = add_command("simulate", cmd_simulate, "simulate rounds under the equilibrium profile")
    p_sim.add_argument("--rounds", type=int, default=100000)
    p_sim.add_argument("--seeds", default="0", help=list_help)
    add_game(p_sim)
    p_sim.add_argument("--trace", help="per-round trace CSV (single seed only)")

    p_adapt = add_command("adapt", cmd_adapt, "simulation-coupled distributed adaptation")
    add_adapt_knobs(p_adapt)
    p_adapt.add_argument("--seeds", default="0", help=list_help)
    p_adapt.add_argument("--per-node-out", help="optional per-node state CSV")

    p_fig2 = add_command("fig2", cmd_fig2, "adaptation convergence experiment (generated scenarios)", w_hi=2.0)
    p_fig2.add_argument("--seeds", default="0-19", help=list_help)
    add_adapt_knobs(p_fig2)

    p_fig3 = add_command("fig3", cmd_fig3, "coded throughput vs file count (generated scenarios)", w_hi=1.0)
    p_fig3.add_argument("--files", default="3,4,5,6,7,8", help=list_help)
    p_fig3.add_argument("--rounds", type=int, help="cross-check each point by a simulation of this many rounds")
    p_fig3.add_argument("--seed", type=int, default=0)

    for p in sub.choices.values():  # last in every usage line
        p.add_argument("--out", required=True, help="output CSV path")
    return parser


OUTPUTS = ("out", "trace", "per_node_out", "scenarios_out")  # every output a command can write


def main(argv: list[str] | None = None) -> int:
    """Run one command, which returns the header and rows of ``--out`` (it
    writes its side outputs, opened here, itself); keep every output only
    once all are written.  A numpy overflow, division by zero or invalid
    value raises, so that no output gets a non-finite number."""
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.dumps:  # the scenarios a command generates, beside its results; a bad --out is named first
            args.scenarios_out = f"{Path(args.out)}.scenarios.json"
        with np.errstate(over="raise", divide="raise", invalid="raise"), ExitStack() as opened:
            # Open every output before any work, so that an unwritable path fails at
            # once; keep them only once all are written, and discard any other.
            outputs: list[atomic_open] = []
            for dest in OUTPUTS:
                path = getattr(args, dest, None)
                if path is not None:
                    if dest == "scenarios_out" and args.out.tmp is None and (args.out.std or not os.path.islink(args.out)):
                        # a std stream, or a device or FIFO named directly, not through a link: the dump would be made in /dev
                        raise ValueError(f"{args.command} writes <out>.scenarios.json beside --out, so --out must be a file: {args.out}")
                    try:
                        out = atomic_open(path)
                    except OSError as exc:
                        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None
                    opened.callback(out.close)
                    if out.tmp is not None and out.tmp in [o.tmp for o in outputs]:  # one temporary file each
                        raise ValueError(f"two outputs name the file {path}")
                    outputs.append(out)
                    setattr(args, dest, out)
            header, lines = args.func(args)
            for out in outputs[1:]:  # the side outputs, before --out: none interleaves with it on one std stream
                out.fh.flush()  # a write that fails late fails here, before any output is kept
            write_csv(args.out, header, lines)
            args.out.fh.flush()
            for out in outputs:
                out.close(keep=True)
            print(f"wrote {len(lines)} rows to {args.out}")
            return 0
    except ScenarioError as exc:
        print("invalid scenario:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, MemoryError) as exc:  # also counts too large to index or allocate
        print(f"invalid arguments: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output that fails as it is written, such as /dev/full
        print(f"invalid arguments: cannot write an output: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except NoEquilibriumError as exc:
        print(f"equilibrium does not exist: {exc}", file=sys.stderr)
        return 3
    except StallError as exc:
        print(f"simulation stalled: {exc}", file=sys.stderr)
        return 4
    except FloatingPointError as exc:
        print(f"numeric overflow: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
