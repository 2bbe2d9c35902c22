"""Multi-level Boolean networks with SOP nodes.

The elimination / kernel-extraction engine of Section IV-B operates on a
network of SOP nodes rather than on the AIG: "prior to kernel extraction,
node elimination is often used to create larger SOPs".  This module provides
that network, conversion to/from AIGs, *node elimination* (forward collapsing
with a literal-variation threshold, exactly the procedure described in the
paper), and greedy shared-kernel extraction.

SOP variables are network node ids directly (a global variable space), so
covers from different nodes can be compared, divided, and shared without
renaming.  Python's big integers keep the cube masks cheap as long as node
ids stay modest — partitions re-index densely before building a network.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.aig.aig import Aig, lit_is_compl, lit_node, lit_notcond
from repro.sop.division import divide
from repro.sop.factor import factored_literal_count, factor, sop_to_aig
from repro.sop.kernels import best_kernel
from repro.sop.sop import Sop


class SopNetwork:
    """A DAG of SOP nodes between primary inputs and outputs."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self.pis: List[int] = []
        self.pi_names: List[str] = []
        #: internal node id -> cover over node-id variables
        self.nodes: Dict[int, Sop] = {}
        #: outputs as (node id, complemented) pairs; node may be a PI
        self.pos: List[Tuple[int, bool]] = []
        self.po_names: List[str] = []
        self._next_id = 0

    # -- construction -----------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input; returns its node id."""
        node = self._next_id
        self._next_id += 1
        self.pis.append(node)
        self.pi_names.append(name or f"pi{len(self.pis) - 1}")
        return node

    def add_node(self, sop: Sop) -> int:
        """Create an internal node computing *sop*; returns its node id."""
        node = self._next_id
        self._next_id += 1
        self.nodes[node] = sop
        return node

    def add_po(self, node: int, complemented: bool = False,
               name: Optional[str] = None) -> None:
        """Mark *node* (possibly complemented) as a primary output."""
        self.pos.append((node, complemented))
        self.po_names.append(name or f"po{len(self.pos) - 1}")

    # -- queries ------------------------------------------------------------------

    def is_pi(self, node: int) -> bool:
        """True for primary inputs."""
        return node not in self.nodes and node in set(self.pis)

    def fanins(self, node: int) -> List[int]:
        """Support node ids of an internal node's cover."""
        return self.nodes[node].support()

    def fanouts(self) -> Dict[int, List[int]]:
        """Map from node id to the internal nodes using it."""
        out: Dict[int, List[int]] = {}
        for node, sop in self.nodes.items():
            mask = 0
            for p, n in sop.cubes:
                mask |= p | n
            while mask:
                low = mask & -mask
                mask ^= low
                out.setdefault(low.bit_length() - 1, []).append(node)
        return out

    def total_literals(self) -> int:
        """Sum of flat SOP literal counts — the eliminate/kernel cost metric."""
        return sum(sop.num_literals() for sop in self.nodes.values())

    def total_factored_literals(self) -> int:
        """Sum of factored-form literal counts over all nodes."""
        return sum(factored_literal_count(factor(sop))
                   for sop in self.nodes.values())

    def num_nodes(self) -> int:
        """Number of internal nodes."""
        return len(self.nodes)

    def topological_order(self) -> List[int]:
        """Internal nodes in fanin-before-fanout order."""
        order: List[int] = []
        state: Dict[int, int] = {}
        for root in list(self.nodes):
            if state.get(root):
                continue
            stack = [root]
            while stack:
                n = stack[-1]
                if state.get(n) == 2:
                    stack.pop()
                    continue
                if state.get(n) is None:
                    state[n] = 1
                    for f in self.nodes[n].support():
                        if f in self.nodes and state.get(f) is None:
                            stack.append(f)
                else:
                    state[n] = 2
                    order.append(n)
                    stack.pop()
        return order

    # -- elimination (forward collapsing) ----------------------------------------------

    def eliminate(self, threshold: int, max_cubes: int = 512,
                  max_passes: int = 10) -> int:
        """Collapse nodes into their fanouts under a literal-variation bound.

        "We go over all nodes in the partition, and for each node, we
        estimate the variation in the number of literals ... that would
        result from the collapsing of the node into its fanouts.  If this
        variation is less than the specified threshold, the collapsing is
        performed.  The operation is repeated until no node gets collapsed."
        (Section IV-B.)

        Returns the number of nodes eliminated.  ``threshold = -1``
        reproduces the strictest paper setting (only literal-reducing
        collapses); large thresholds aggressively grow SOPs.
        """
        eliminated = 0
        for _pass in range(max_passes):
            changed = False
            fanouts = self.fanouts()
            po_nodes = {node for node, _c in self.pos}
            for node in list(self.nodes):
                if node in po_nodes:
                    continue
                users = [u for u in fanouts.get(node, []) if u in self.nodes]
                if not users:
                    del self.nodes[node]
                    changed = True
                    continue
                substitution = self._collapse_preview(node, users, max_cubes)
                if substitution is None:
                    continue
                new_sops, variation = substitution
                if variation < threshold:
                    for user, sop in new_sops.items():
                        self.nodes[user] = sop
                    del self.nodes[node]
                    eliminated += 1
                    changed = True
                    fanouts = self.fanouts()
            if not changed:
                break
        return eliminated

    def _collapse_preview(self, node: int, users: List[int],
                          max_cubes: int) -> Optional[Tuple[Dict[int, Sop], int]]:
        """Substitute *node* into *users*; returns (new covers, literal delta)."""
        node_sop = self.nodes[node]
        complement: Optional[Sop] = None
        new_sops: Dict[int, Sop] = {}
        delta = -node_sop.num_literals()
        bit = 1 << node
        for user in users:
            user_sop = self.nodes[user]
            result = Sop()
            for pos, neg in user_sop.cubes:
                if pos & bit:
                    base = Sop([(pos & ~bit, neg)])
                    for cube in (base & node_sop).cubes:
                        result.add_cube(cube)
                elif neg & bit:
                    if complement is None:
                        complement = node_sop.complement()
                        if complement is None:
                            return None
                    base = Sop([(pos, neg & ~bit)])
                    for cube in (base & complement).cubes:
                        result.add_cube(cube)
                else:
                    result.add_cube((pos, neg))
                if len(result.cubes) > max_cubes:
                    return None
            new_sops[user] = result
            delta += result.num_literals() - user_sop.num_literals()
        return new_sops, delta

    # -- kernel extraction ------------------------------------------------------------------

    def extract_kernels(self, max_rounds: int = 50,
                        max_kernels_per_node: int = 50,
                        _cache: Optional[dict] = None) -> int:
        """Greedy shared-kernel extraction; returns total literal saving.

        Repeatedly finds the kernel with the best network-wide value
        (:func:`repro.sop.kernels.best_kernel`), materializes it as a new
        node, and rewrites every node where dividing by it pays off.

        *_cache* optionally shares the kernel/saving memo with other
        extractions over overlapping covers (the heterogeneous threshold
        sweep re-kernels near-identical networks).
        """
        total_saving = 0
        # Memoize kernel enumeration and per-(node, kernel) saving across
        # rounds — each round rewrites a handful of nodes, so the
        # content-keyed cache turns the re-evaluation of the unchanged rest
        # into lookups (same pure results, bit-identical choice sequence).
        cache = _cache if _cache is not None else {}
        for _round in range(max_rounds):
            internal = [self.nodes[n] for n in self.topological_order()]
            found = best_kernel(internal, max_kernels_per_node, _cache=cache)
            if found is None:
                return total_saving
            kernel, value = found
            total_saving += value
            new_node = self.add_node(kernel)
            new_bit = 1 << new_node
            for node in list(self.nodes):
                if node == new_node:
                    continue
                sop = self.nodes[node]
                quotient, remainder = divide(sop, kernel)
                if quotient.is_const0():
                    continue
                rewritten = quotient.and_cube((new_bit, 0)) | remainder
                if (rewritten.num_literals() + 0 < sop.num_literals()):
                    self.nodes[node] = rewritten
        return total_saving

    # -- cube-level common-divisor extraction -----------------------------------------------

    def extract_common_cubes(self, max_rounds: int = 50) -> int:
        """Extract shared multi-literal cubes ("cube extraction" of MIS).

        Complements kernel extraction: kernels share multi-cube divisors,
        this shares single-cube divisors.  Returns the literal saving.
        """
        from collections import Counter
        from repro.sop.bitutil import iter_bits
        saving = 0
        for _round in range(max_rounds):
            pair_count: Counter = Counter()
            for sop in self.nodes.values():
                for pos, neg in sop.cubes:
                    literals = ([(v, True) for v in iter_bits(pos)]
                                + [(v, False) for v in iter_bits(neg)])
                    for i in range(len(literals)):
                        for j in range(i + 1, len(literals)):
                            pair_count[(literals[i], literals[j])] += 1
            if not pair_count:
                return saving
            (lit_a, lit_b), count = pair_count.most_common(1)[0]
            if count < 2:
                return saving
            cube = (
                (1 << lit_a[0] if lit_a[1] else 0) | (1 << lit_b[0] if lit_b[1] else 0),
                (0 if lit_a[1] else 1 << lit_a[0]) | (0 if lit_b[1] else 1 << lit_b[0]),
            )
            gain = count - 2  # each use saves one literal; new node costs 2
            if gain <= 0:
                return saving
            new_node = self.add_node(Sop([cube]))
            new_bit = 1 << new_node
            from repro.sop.cube import cube_contains
            for node in list(self.nodes):
                if node == new_node:
                    continue
                sop = self.nodes[node]
                rewritten = Sop()
                touched = False
                for c in sop.cubes:
                    if cube_contains(cube, c):
                        rewritten.add_cube(((c[0] & ~cube[0]) | new_bit,
                                            c[1] & ~cube[1]))
                        touched = True
                    else:
                        rewritten.add_cube(c)
                if touched:
                    self.nodes[node] = rewritten
            saving += gain
        return saving

    # -- AIG conversion -------------------------------------------------------------------------

    @classmethod
    def from_aig(cls, aig: Aig) -> "SopNetwork":
        """Each AND gate becomes a one-cube SOP node (phases folded in)."""
        net = cls(aig.name)
        mapping: Dict[int, int] = {}
        for i, p in enumerate(aig.pis()):
            mapping[p] = net.add_pi(aig.pi_name(i))
        const_node: Optional[int] = None
        for n in aig.topological_order():
            f0, f1 = aig.fanins(n)
            pos = neg = 0
            for f in (f0, f1):
                var = mapping[lit_node(f)]
                if lit_is_compl(f):
                    neg |= 1 << var
                else:
                    pos |= 1 << var
            mapping[n] = net.add_node(Sop([(pos, neg)]))
        for i, po in enumerate(aig.pos()):
            node = lit_node(po)
            if node == 0:
                if const_node is None:
                    const_node = net.add_node(Sop.constant(False))
                target = const_node
            else:
                target = mapping[node]
            net.add_po(target, lit_is_compl(po), aig.po_name(i))
        return net

    def to_aig(self) -> Aig:
        """Factor every node and strash the network into a fresh AIG."""
        aig = Aig(self.name)
        literal_of: Dict[int, int] = {}
        for i, p in enumerate(self.pis):
            literal_of[p] = aig.add_pi(self.pi_names[i])
        for node in self.topological_order():
            literal_of[node] = sop_to_aig(self.nodes[node], aig, literal_of)
        for i, (node, complemented) in enumerate(self.pos):
            literal = literal_of[node]
            aig.add_po(lit_notcond(literal, complemented), self.po_names[i])
        return aig
