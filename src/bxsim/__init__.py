"""Broadcast exchange protocol: equilibrium analysis and simulation."""

from .equilibrium import node_costs_at_ne, throughput_at_ne, two_file_equilibrium
from .model import Scenario, make_two_file
from .simulate import run_simulation

__version__ = "0.1.0"
