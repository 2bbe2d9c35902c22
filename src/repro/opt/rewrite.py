"""Cut-based DAG-aware rewriting (the ``rw`` move).

For every node, 4-feasible cuts are enumerated with their local functions;
each function is NPN-canonicalized and looked up in a synthesis library that
maps canonical classes to compact factored-form structures.  A candidate
replacement is strashed into the network, its real gain measured (nodes
reclaimed from the MFFC minus nodes added, with structural sharing credited
automatically by the strash table), and committed only when profitable —
exactly the DAG-aware accounting of Mishchenko et al. [12], which the paper
uses as the primitive "rewriting" move of the gradient engine (Section IV-A).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.aig.aig import Aig, lit_notcond
from repro.aig.cuts import Cut, enumerate_cuts
from repro.opt.shared import try_replace
from repro.sop.factor import FactoredForm, factor, factored_to_aig
from repro.tt.isop import isop
from repro.tt.npn import invert_transform, npn_canonical
from repro.tt.truthtable import TruthTable
from repro.sop.sop import Sop


class RewriteLibrary:
    """Lazy NPN-class library of factored-form implementations.

    Structures are synthesized on demand (ISOP of the canonical
    representative, algebraically factored) and cached per class — the
    pure-Python analogue of ABC's precomputed 4-input NPN structure library.
    """

    def __init__(self, num_vars: int = 4) -> None:
        self.num_vars = num_vars
        self._forms: Dict[Tuple[int, int], FactoredForm] = {}

    def lookup(self, canonical: TruthTable) -> FactoredForm:
        """Best known factored form for an NPN-canonical function."""
        form = self._forms.get((canonical.bits, canonical.num_vars))
        if form is None:
            cubes = isop(canonical, canonical)
            sop = Sop(cubes)
            direct = factor(sop)
            complement = (~canonical)
            comp_sop = Sop(isop(complement, complement))
            comp_form = factor(comp_sop)
            # Choose the cheaper of implementing f or !f.
            from repro.sop.factor import factored_literal_count
            if factored_literal_count(comp_form) < factored_literal_count(direct):
                form = ("not", comp_form)
            else:
                form = direct
            self._forms[(canonical.bits, canonical.num_vars)] = form
        return form

    def build(self, aig: Aig, table: TruthTable, leaf_literals: List[int]) -> int:
        """Strash an implementation of *table* over *leaf_literals*."""
        canonical, transform = npn_canonical(table)
        inverse = invert_transform(transform, table.num_vars)
        out_neg, phase, perm = inverse
        # canonical input j is fed by leaf inv_perm[j], possibly complemented.
        inv_perm = [0] * table.num_vars
        for new_var, old_var in enumerate(perm):
            inv_perm[old_var] = new_var
        fanins = []
        for j in range(table.num_vars):
            source = inv_perm[j]
            literal = leaf_literals[source]
            fanins.append(lit_notcond(literal, bool((phase >> source) & 1)))
        form = self.lookup(canonical)
        negate_out = out_neg
        if form[0] == "not":
            form = form[1]
            negate_out = not negate_out
        result = factored_to_aig(form, aig, fanins)
        return lit_notcond(result, negate_out)


_DEFAULT_LIBRARY: Optional[RewriteLibrary] = None


def default_library() -> RewriteLibrary:
    """Process-wide shared rewrite library (grown lazily)."""
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        _DEFAULT_LIBRARY = RewriteLibrary()
    return _DEFAULT_LIBRARY


def rewrite(aig: Aig, min_gain: int = 1, cut_size: int = 4,
            cut_limit: int = 6, library: Optional[RewriteLibrary] = None,
            node_filter: Optional[set] = None) -> int:
    """One rewriting pass over the network; returns the total gain.

    ``min_gain = 0`` enables zero-cost replacements (ABC's ``rwz``), useful
    for escaping local minima at the cost of extra runtime.
    ``node_filter`` restricts the pass to a set of nodes (partition scope);
    cuts are then enumerated over their fan-in cones only.  Either way the
    cuts are those of the network at the start of the pass.
    """
    library = library or default_library()
    roots = (None if node_filter is None
             else [n for n in node_filter if aig.is_and(n)])
    cuts = enumerate_cuts(aig, k=cut_size, cut_limit=cut_limit,
                          compute_tables=True, roots=roots)
    total_gain = 0
    for node in list(aig.topological_order()):
        if aig.is_dead(node) or not aig.is_and(node):
            continue
        if node_filter is not None and node not in node_filter:
            continue
        for cut in cuts.get(node, []):
            if len(cut.leaves) < 2 or cut.table is None:
                continue
            if any(aig.is_dead(leaf) for leaf in cut.leaves):
                continue
            table = TruthTable(cut.table, len(cut.leaves))
            leaf_literals = [2 * leaf for leaf in cut.leaves]

            def build(t=table, ls=leaf_literals):
                return library.build(aig, t, ls)

            gain = try_replace(aig, node, build, min_gain=min_gain)
            if gain is not None:
                total_gain += gain
                break  # node replaced; move on
    return total_gain
