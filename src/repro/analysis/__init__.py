"""Dataflow and graph analyses over the IR.

These are the inputs the paper's algorithms consume: liveness and the
interference graph for traditional register allocation, and the *adjacency
graph* (paper Definition 2) that drives all three differential schemes.
"""

from repro.analysis.dataflow import (
    DataflowProblem,
    DataflowResult,
    reverse_postorder,
    solve,
    union_join,
    intersection_join,
)
from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.analysis.interference import InterferenceGraph, build_interference
from repro.analysis.dominators import (compute_dominators,
                                       dominance_frontiers, dominator_tree,
                                       immediate_dominators)
from repro.analysis.loops import NaturalLoop, find_natural_loops, loop_depths
from repro.analysis.frequency import estimate_block_frequencies
from repro.analysis.profile import (block_frequencies_from_counts,
                                    profile_block_frequencies)
from repro.analysis.adjacency import AdjacencyGraph, build_adjacency
from repro.analysis.batched import prewarm_corpus
from repro.analysis.cache import analysis_cache_stats, clear_analysis_cache
from repro.analysis.ssa import Phi, SSAForm, construct_ssa, destruct_ssa

__all__ = [
    "DataflowProblem",
    "DataflowResult",
    "reverse_postorder",
    "solve",
    "union_join",
    "intersection_join",
    "profile_block_frequencies",
    "block_frequencies_from_counts",
    "LivenessInfo",
    "compute_liveness",
    "InterferenceGraph",
    "build_interference",
    "compute_dominators",
    "immediate_dominators",
    "dominator_tree",
    "dominance_frontiers",
    "Phi",
    "SSAForm",
    "construct_ssa",
    "destruct_ssa",
    "NaturalLoop",
    "find_natural_loops",
    "loop_depths",
    "estimate_block_frequencies",
    "AdjacencyGraph",
    "build_adjacency",
    "prewarm_corpus",
    "analysis_cache_stats",
    "clear_analysis_cache",
]
