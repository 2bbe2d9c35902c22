"""And-Inverter Graph package: the logic substrate of the SBM framework."""

from repro.aig.aig import (
    CONST0,
    CONST1,
    Aig,
    lit,
    lit_is_compl,
    lit_node,
    lit_not,
    lit_notcond,
)
from repro.aig.cuts import Cut, cut_cone_size, cut_volume_refs, enumerate_cuts
from repro.aig.io_aiger import read_aag, write_aag, write_aag_string
from repro.aig.io_aiger_binary import read_aig_binary, write_aig_binary
from repro.aig.simprogram import (
    SimProgram,
    pack_rounds,
    sim_program,
    simulate_wide,
    wide_mask,
)
from repro.aig.simulate import (
    po_tables,
    po_words,
    simulate_complete,
    simulate_words,
)
from repro.aig.traversal import (
    all_supports,
    checksum,
    cone_inclusion,
    node_level_map,
    structural_support,
    support_similarity,
    topological_order_all,
    transitive_fanin,
    transitive_fanout,
)

__all__ = [
    "Aig", "CONST0", "CONST1",
    "lit", "lit_node", "lit_is_compl", "lit_not", "lit_notcond",
    "Cut", "enumerate_cuts", "cut_cone_size", "cut_volume_refs",
    "read_aag", "write_aag", "write_aag_string",
    "read_aig_binary", "write_aig_binary",
    "simulate_words", "simulate_complete", "po_words", "po_tables",
    "SimProgram", "sim_program", "simulate_wide", "pack_rounds", "wide_mask",
    "topological_order_all", "transitive_fanin", "transitive_fanout",
    "structural_support", "all_supports", "support_similarity",
    "cone_inclusion", "node_level_map", "checksum",
]
