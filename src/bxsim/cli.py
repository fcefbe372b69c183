"""Command-line front end: equilibrium solving, simulation, adaptation runs,
and the two experiment reproductions, all emitting plot-ready CSV.

Exit codes: 0 success, 2 invalid scenario/arguments, 3 equilibrium
nonexistence (negative rates, or a coded game of 3 or more files whose
aggregate system is singular: two rows with c = d, or a zero denominator in
its closed form), 4 runtime stall or diverging adaptation.  Every output is
opened before any work, and a failed command leaves none of them.  Every command is deterministic given its config and seeds; reruns
produce byte-identical CSV in the csv module's default dialect (comma,
``\r\n``, no field ever quoted): one ``%`` template per row kind (the
``*_ROW`` constants), floats at ``%.9g``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from itertools import product
from pathlib import Path

import numpy as np

from . import adapt, equilibrium, simulate
from .errors import (
    NegativeRateError,
    ScenarioError,
    SingularSystemError,
    StallError,
)
from .model import Scenario, as_output, atomic_open, load_scenario, require_valid


NODE_COLUMNS = "%.9g,%.9g,%d"  # w, g, needs


def node_columns(s: Scenario) -> list[str]:
    """Per node, its w, g and needs columns as one CSV string."""
    return format_rows(NODE_COLUMNS, s.w.tolist(), s.g.tolist(), s.needs.tolist())


def format_rows(template: str, *columns) -> list[str]:
    """``template`` filled from each position of the ``columns`` in turn."""
    return [template % row for row in zip(*columns)]


def write_csv(path: str | Path | atomic_open, header: list[str], lines: list[str]) -> None:
    """Write the header and the preformatted ``lines`` to ``path``."""
    with as_output(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(lines))


def parse_seeds(text: str) -> list[int]:
    """Comma-separated seeds; 'a-b' expands to the inclusive range.  An empty
    range, or a seed given twice, is an error."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            if int(hi) < int(lo):
                raise ValueError(f"empty seed range {part}")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if len(set(out)) < len(out):
        raise ValueError(f"seed list {text} names a seed twice")
    return out


def gen_rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, purpose])))


def gen_groups(sizes: list[int], w_lo: float, w_hi: float, g: float, rng: np.random.Generator) -> Scenario:
    """sizes[f] nodes needing file f, with g fixed and w drawn uniformly from
    [w_lo, w_hi], file by file."""
    if min(sizes, default=0) < 0 or not 0 < w_lo <= w_hi < float("inf"):
        raise ValueError("need group sizes >= 0 and finite 0 < w_lo <= w_hi")
    w = rng.uniform(w_lo, w_hi, size=sum(sizes))
    return Scenario(files=len(sizes), w=w, g=np.full(w.size, g), needs=np.repeat(np.arange(len(sizes)), sizes))


def gen_two_file(
    size_a: int, size_b: int, w_lo: float, w_hi: float, g: float, rng: np.random.Generator
) -> Scenario:
    """Two groups with g fixed and w drawn uniformly from [w_lo, w_hi]."""
    return gen_groups([size_a, size_b], w_lo, w_hi, g, rng)


SCENARIO_JSON = '%s\n  %s: {\n    "files": %d,\n    "nodes": [%s\n    ]\n  }'  # separator, key, files, nodes
NODE_JSON = '\n      {\n        "g": %r,\n        "needs": %d,\n        "w": %r\n      }'  # g, needs, w


def dump_scenarios(path: str | Path | atomic_open, scenarios: dict[str, Scenario]) -> None:
    """Write the generated scenarios to ``path`` for reproducibility: the bytes of
    ``json.dump(..., sort_keys=True, indent=2)`` on their ``scenario_to_dict`` forms, as long as
    each has a node and finite costs, which every dumped scenario has (``%r`` is json's float form)."""
    with as_output(path) as fh:
        fh.write("{")
        for i, key in enumerate(sorted(scenarios)):
            s = scenarios[key]
            nodes = ",".join(format_rows(NODE_JSON, s.g.tolist(), s.needs.tolist(), s.w.tolist()))
            fh.write(SCENARIO_JSON % ("," if i else "", json.dumps(key), s.files, nodes))
        fh.write("\n}\n")


NE_HEADER = ["kind", "node", "context", "w", "g", "needs", "value"]
NE_AGGREGATE_ROW = "Gamma,,%d,,,,%.9g\r\n"
NE_DEGENERATE_ROW = "degenerate,,,,,,%d\r\n"
NE_GAMMA_ROW = "gamma,%d,,%s,%.9g\r\n"
NE_LAMBDA_ROW = "lambda,%d,%d,%s,%.9g\r\n"


def two_file_alpha(args) -> float:
    """--alpha, which only the plain two-file game has (default 0.5)."""
    if args.coded and args.alpha is not None:
        raise ValueError("--alpha applies only to the plain two-file game, not with --coded")
    return 0.5 if args.alpha is None else args.alpha


def cmd_ne(args) -> int:
    alpha = two_file_alpha(args)
    s, _ = load_scenario(args.config)
    require_valid(s)
    lines: list[str] = []
    if args.coded:
        eq = equilibrium.coded_equilibrium(s)
        profile = eq.profile
        lines += format_rows(NE_AGGREGATE_ROW, range(s.files), eq.gamma_by_file)
        lines.append(NE_DEGENERATE_ROW % eq.degenerate)
    else:
        profile = equilibrium.two_file_equilibrium(s, alpha=alpha).profile
    columns = node_columns(s)
    lines += format_rows(NE_GAMMA_ROW, range(s.n_nodes), columns, profile.gamma.tolist())
    nodes, files = np.nonzero(np.arange(s.files) != s.needs[:, None])  # sorted (node, held file) pairs
    values, nodes = profile.lam[nodes, files].tolist(), nodes.tolist()
    lines += format_rows(NE_LAMBDA_ROW, nodes, files.tolist(), [columns[n] for n in nodes], values)
    write_csv(args.out, NE_HEADER, lines)
    print(f"wrote {len(lines)} rows to {args.out}")
    return 0


POA_HEADER = ["kind", "node", "w", "g", "needs", "avg_cost", "transmit_prob", "poa", "throughput", "total_duration"]
POA_SYSTEM_ROW = "system,,,,,,,%.9g,%.9g,%.9g\r\n"
POA_NODE_ROW = "node,%d,%s,%.9g,%.9g,%.9g,,\r\n"


def cmd_poa(args) -> int:
    s, _ = load_scenario(args.config)
    require_valid(s)
    system = (equilibrium.poa_system(s), equilibrium.throughput_at_ne(s), equilibrium.ne_round_duration(s).total)
    costs = equilibrium.node_costs_at_ne(s)  # avg_cost, transmit_prob, poa
    lines = [POA_SYSTEM_ROW % system]
    lines += format_rows(POA_NODE_ROW, range(s.n_nodes), node_columns(s), *(c.tolist() for c in costs))
    write_csv(args.out, POA_HEADER, lines)
    print(f"wrote {len(lines)} rows to {args.out}")
    return 0


SIM_HEADER = ["seed", "kind", "node", "w", "g", "needs", "downloads", "uploads", "avg_cost", "throughput"]
SIM_NODE_ROW = "%d,node,%d,%s,%d,%d,%.9g,\r\n"
SIM_SYSTEM_ROW = "%d,system,,,,,,,,%.9g\r\n"


def cmd_simulate(args) -> int:
    alpha = two_file_alpha(args)
    s, cfg_seed = load_scenario(args.config)
    require_valid(s)
    if not args.coded and s.files != 2:
        print("plain (uncoded) simulation requires a two-file scenario", file=sys.stderr)
        return 2
    profile = (
        equilibrium.coded_equilibrium(s).profile
        if args.coded
        else equilibrium.two_file_equilibrium(s, alpha=alpha).profile
    )
    seeds = parse_seeds(args.seeds) if args.seeds else [cfg_seed if cfg_seed is not None else 0]
    if args.trace and len(seeds) > 1:
        print("--trace requires a single seed", file=sys.stderr)
        return 2
    lines: list[str] = []
    columns = node_columns(s)
    for seed in seeds:
        metrics = simulate.run_simulation(s, profile, args.rounds, seed, args.coded, args.trace or None)
        costs = [metrics.avg_total_cost(n) for n in range(s.n_nodes)]
        downloads, uploads = metrics.downloads.tolist(), metrics.uploads.tolist()
        lines += format_rows(SIM_NODE_ROW, [seed] * s.n_nodes, range(s.n_nodes), columns, downloads, uploads, costs)
        lines.append(SIM_SYSTEM_ROW % (seed, metrics.per_node_throughput()))
    write_csv(args.out, SIM_HEADER, lines)
    print(f"wrote {len(lines)} rows to {args.out}")
    return 0


def adapt_config(args) -> adapt.AdaptConfig:
    return adapt.AdaptConfig(
        epoch_rounds=args.epoch_rounds, epsilon=args.epsilon, guess_factor=args.guess_factor, updates=args.updates
    )


ADAPT_HEADER = ["seed", "epoch", "delta", "observed_inv_that_a", "observed_inv_that_b", "throughput"]
ADAPT_ROW = "%d,%d,%.9g,%.9g,%.9g,%.9g\r\n"
ADAPT_NODE_HEADER = ["seed", "epoch", "node", "that_guess", "rate"]
ADAPT_NODE_ROW = "%d,%d,%d,%.9g,%.9g\r\n"


def cmd_adapt(args) -> int:
    s, cfg_seed = load_scenario(args.config)
    require_valid(s)
    cfg = adapt_config(args)
    seeds = parse_seeds(args.seeds) if args.seeds else [cfg_seed if cfg_seed is not None else 0]
    lines, states = [], []
    for seed, result in zip(seeds, adapt.run_adaptive_simulation([s] * len(seeds), cfg, seeds)):
        for rec in result.epochs:
            observed = (rec.delta, rec.observed_inv_that_a, rec.observed_inv_that_b, rec.throughput)
            lines.append(ADAPT_ROW % (seed, rec.epoch, *observed))
            states.append(rec.node_states)
    write_csv(args.out, ADAPT_HEADER, lines)
    if args.per_node_out:
        keys = zip(*product(seeds, range(cfg.updates + 1), range(s.n_nodes)))  # seed, epoch, node
        node_lines = format_rows(ADAPT_NODE_ROW, *keys, *np.concatenate(states).T.tolist())
        write_csv(args.per_node_out, ADAPT_NODE_HEADER, node_lines)
    print(f"wrote {len(lines)} rows to {args.out}")
    return 0


FIG2_HEADER = ["epoch", "throughput_mean", "throughput_std", "ne_throughput"]
FIG2_ROW = "%d,%.9g,%.9g,%.9g\r\n"


def cmd_fig2(args) -> int:
    seeds = parse_seeds(args.seeds)
    cfg = adapt_config(args)
    generated = [gen_two_file(args.group_size, args.group_size, args.w_lo, args.w_hi, args.g, gen_rng(seed, 1)) for seed in seeds]
    results = adapt.run_adaptive_simulation(generated, cfg, seeds)
    # A scenario the adaptive run accepted has an equilibrium throughput.
    ne_mean = float(np.mean([equilibrium.throughput_at_ne(s) for s in generated]))
    data = np.array([[rec.throughput for rec in result.epochs] for result in results])
    lines = [
        FIG2_ROW % (epoch, np.mean(data[:, epoch]), np.std(data[:, epoch]), ne_mean)
        for epoch in range(cfg.updates + 1)
    ]
    write_csv(args.out, FIG2_HEADER, lines)
    dump_scenarios(args.scenarios_out, {f"seed_{seed}": s for seed, s in zip(seeds, generated)})
    print(f"wrote {len(lines)} rows to {args.out}")
    return 0


FIG3_HEADER = ["num_files", "coded_throughput", "baseline_throughput", "simulated_throughput"]
FIG3_ROW = "%d,%.9g,%.9g,%.9g\r\n"
FIG3_ANALYTIC_ROW = "%d,%.9g,%.9g,\r\n"  # without --simulate


def cmd_fig3(args) -> int:
    file_counts = [int(x) for x in args.files.split(",")]
    if len(set(file_counts)) < len(file_counts):  # one scenario dump entry per file count
        raise ValueError(f"file count list {args.files} names a file count twice")
    lines: list[str] = []
    scenarios: dict[str, Scenario] = {}
    for f in file_counts:
        s = gen_groups([args.group_size] * f, args.w_lo, args.w_hi, args.g, gen_rng(args.seed, f))
        scenarios[f"files_{f}"] = s
        require_valid(s)
        # Throughput only needs the per-file aggregates, which exist even
        # when the per-node split would go negative.
        eq = equilibrium.coded_equilibrium(s, allow_negative=True)
        analytic = equilibrium.coded_throughput(s, eq)
        if args.simulate:
            profile = equilibrium.coded_equilibrium(s).profile
            metrics = simulate.run_simulation(s, profile, args.rounds, seed=args.seed, coded=True)
            lines.append(FIG3_ROW % (f, analytic, 1.0 / f, metrics.per_node_throughput()))
        else:
            lines.append(FIG3_ANALYTIC_ROW % (f, analytic, 1.0 / f))
    write_csv(args.out, FIG3_HEADER, lines)
    dump_scenarios(args.scenarios_out, scenarios)
    print(f"wrote {len(lines)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bxsim",
        description="Equilibrium analysis and simulation of the broadcast exchange protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", required=True, help="output CSV path")

    p_ne = sub.add_parser("ne", help="closed-form equilibrium rates")
    p_ne.add_argument("--config", required=True, help="scenario config (JSON)")
    p_ne.add_argument("--alpha", type=float, help="initiation share of group 0 (plain two-file game; default 0.5)")
    p_ne.add_argument("--coded", action="store_true", help="solve the network-coded game")
    add_out(p_ne)
    p_ne.set_defaults(func=cmd_ne)

    p_poa = sub.add_parser("poa", help="prices of anarchy and node costs (two-file)")
    p_poa.add_argument("--config", required=True)
    add_out(p_poa)
    p_poa.set_defaults(func=cmd_poa)

    p_sim = sub.add_parser("simulate", help="simulate rounds under the equilibrium profile")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--rounds", type=int, default=100000)
    p_sim.add_argument("--seeds", help="comma-separated seeds (default: config seed or 0)")
    p_sim.add_argument("--alpha", type=float, help="as for ne")
    p_sim.add_argument("--coded", action="store_true")
    p_sim.add_argument("--trace", help="per-round trace CSV (single seed only)")
    add_out(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_adapt = sub.add_parser("adapt", help="simulation-coupled distributed adaptation")
    p_adapt.add_argument("--config", required=True)
    p_adapt.add_argument("--updates", type=int, default=10)
    p_adapt.add_argument("--epoch-rounds", type=int, default=100, dest="epoch_rounds")
    p_adapt.add_argument("--epsilon", type=float, default=0.1)
    p_adapt.add_argument("--guess-factor", type=float, default=10.0, dest="guess_factor")
    p_adapt.add_argument("--seeds")
    p_adapt.add_argument("--per-node-out", dest="per_node_out", help="optional per-node state CSV")
    add_out(p_adapt)
    p_adapt.set_defaults(func=cmd_adapt)

    p_fig2 = sub.add_parser("fig2", help="adaptation convergence experiment (generated scenarios)")
    p_fig2.add_argument("--group-size", type=int, default=10, dest="group_size")
    p_fig2.add_argument("--w-lo", type=float, default=1.0, dest="w_lo")
    p_fig2.add_argument("--w-hi", type=float, default=2.0, dest="w_hi")
    p_fig2.add_argument("--g", type=float, default=1.0)
    p_fig2.add_argument("--seeds", default="0-19")
    p_fig2.add_argument("--updates", type=int, default=10)
    p_fig2.add_argument("--epoch-rounds", type=int, default=100, dest="epoch_rounds")
    p_fig2.add_argument("--epsilon", type=float, default=0.1)
    p_fig2.add_argument("--guess-factor", type=float, default=10.0, dest="guess_factor")
    add_out(p_fig2)
    p_fig2.set_defaults(func=cmd_fig2)

    p_fig3 = sub.add_parser("fig3", help="coded throughput vs file count (generated scenarios)")
    p_fig3.add_argument("--files", default="3,4,5,6,7,8", help="comma-separated file counts")
    p_fig3.add_argument("--group-size", type=int, default=10, dest="group_size")
    p_fig3.add_argument("--w-lo", type=float, default=1.0, dest="w_lo")
    p_fig3.add_argument("--w-hi", type=float, default=1.0, dest="w_hi")
    p_fig3.add_argument("--g", type=float, default=1.0)
    p_fig3.add_argument("--simulate", action="store_true", help="cross-check each point by simulation")
    p_fig3.add_argument("--rounds", type=int, default=20000)
    p_fig3.add_argument("--seed", type=int, default=0)
    add_out(p_fig3)
    p_fig3.set_defaults(func=cmd_fig3)

    return parser


OUTPUTS = ("out", "trace", "per_node_out", "scenarios_out")  # every output a command can write


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.func in (cmd_fig2, cmd_fig3):  # they dump the scenarios they generate beside the results
            args.scenarios_out = Path(args.out).with_suffix(Path(args.out).suffix + ".scenarios.json")
        with ExitStack() as opened:
            # Open every output before any work, so that an unwritable path fails at
            # once; one the command has not written when it ends is discarded.
            partials = set()  # two outputs must not share a temporary file
            for dest in OUTPUTS:
                path = getattr(args, dest, None)
                if path or dest == "out":  # an empty --trace or --per-node-out asks for none
                    try:
                        out = atomic_open(path)
                    except OSError as exc:
                        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None
                    opened.callback(out.close)
                    if out.tmp is not None and out.tmp in partials:
                        raise ValueError(f"two outputs name the file {path}")
                    partials.add(out.tmp)
                    setattr(args, dest, out)
            return args.func(args)
    except ScenarioError as exc:
        print("invalid scenario:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (NegativeRateError, SingularSystemError) as exc:
        print(f"equilibrium does not exist: {exc}", file=sys.stderr)
        return 3
    except StallError as exc:
        print(f"simulation stalled: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
