"""NSGA-Net genome encoding.

NSGA-Net's macro search space (Lu et al., 2019) describes a CNN as a
sequence of *phases* separated by spatial down-sampling.  Each phase is
a small directed acyclic graph of identical computation nodes
(conv → batch-norm → ReLU blocks).  The genome encodes, per phase, a
bit-string with one bit per ordered node pair ``(i, j), i < j`` (node
``j`` consumes node ``i``'s output when set) plus one trailing bit for a
residual skip connection around the whole phase.

With the paper's 4 nodes per phase that is ``4*3/2 + 1 = 7`` bits per
phase; three phases give a 21-bit genome.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np

__all__ = ["PhaseGenome", "Genome", "random_genome", "n_connection_bits"]

#: Above this node count the factorial canonicalization search is not
#: worth it; phases are returned unnormalized (the cache then simply
#: misses some isomorphic duplicates — correctness is unaffected).
_CANONICAL_MAX_NODES = 8


def n_connection_bits(n_nodes: int) -> int:
    """Connection bits for a phase of ``n_nodes`` (excludes the skip bit)."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    return n_nodes * (n_nodes - 1) // 2


# A memo by value, not per instance: ``Genome.from_bits`` builds a fresh
# PhaseGenome for every offspring, and a four-node phase has only 2**7
# values.  Bounded so a wide space churns instead of growing (it holds
# every phase of up to five nodes).
@lru_cache(maxsize=4096)
def _canonical_bits(n_nodes: int, bits: tuple) -> tuple:
    """Smallest bit tuple over all direction-preserving relabelings.

    The brute-force search behind :meth:`PhaseGenome.canonical`: at most
    ``n_nodes!`` permutations, walked once per distinct ``(n_nodes,
    bits)`` value — 24 at the paper's four nodes, 40,320 on the first
    sight of an eight-node phase.
    """
    pairs = [(i, j) for j in range(1, n_nodes) for i in range(j)]  # bit layout
    edges = [pair for pair, bit in zip(pairs, bits) if bit]
    best = bits
    for perm in permutations(range(n_nodes)):
        # perm[i] is node i's new label; edge direction must survive
        if any(perm[i] > perm[j] for i, j in edges):
            continue
        relabeled = {(perm[i], perm[j]) for i, j in edges}
        candidate = tuple(int(pair in relabeled) for pair in pairs) + bits[-1:]
        if candidate < best:
            best = candidate
    return best


@dataclass(frozen=True)
class PhaseGenome:
    """One phase's connectivity: connection bits + residual skip bit.

    ``bits`` is laid out pair-major: ``(0,1), (0,2), (1,2), (0,3), ...``
    (all predecessors of node 1, then node 2, ...), followed by the skip
    bit — matching NSGA-Net's encoding.
    """

    n_nodes: int
    bits: tuple

    def __post_init__(self) -> None:
        expected = n_connection_bits(self.n_nodes) + 1
        bits = tuple(int(b) for b in self.bits)
        if len(bits) != expected:
            raise ValueError(
                f"phase with {self.n_nodes} nodes needs {expected} bits, got {len(bits)}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1, got {bits}")
        object.__setattr__(self, "bits", bits)

    @property
    def skip(self) -> bool:
        """Whether the phase has a residual connection around it."""
        return bool(self.bits[-1])

    def connection_matrix(self) -> np.ndarray:
        """Boolean adjacency ``A[i, j]`` = node j consumes node i (i < j)."""
        matrix = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        idx = 0
        for j in range(1, self.n_nodes):
            for i in range(j):
                matrix[i, j] = bool(self.bits[idx])
                idx += 1
        return matrix

    def predecessors(self, node: int) -> list[int]:
        """Indices of nodes feeding ``node``."""
        matrix = self.connection_matrix()
        return [i for i in range(node) if matrix[i, node]]

    def successors(self, node: int) -> list[int]:
        """Indices of nodes consuming ``node``'s output."""
        matrix = self.connection_matrix()
        return [j for j in range(node + 1, self.n_nodes) if matrix[node, j]]

    def active_nodes(self) -> list[int]:
        """Nodes on some input→output path.

        Every node computes (sourceless nodes read the phase input,
        sinkless nodes feed the phase output), so all nodes are active in
        NSGA-Net's macro encoding; kept as a method for forward
        compatibility with pruned variants and used by the surrogate's
        architecture features.
        """
        return list(range(self.n_nodes))

    @property
    def n_connections(self) -> int:
        """Count of set connection bits (a complexity feature)."""
        return sum(self.bits[:-1])

    def canonical(self) -> "PhaseGenome":
        """Connectivity-normalized form: the same DAG with the
        lexicographically smallest bit string.

        NSGA-Net's macro encoding is redundant: relabeling nodes while
        preserving edge direction (``i < j``) yields a different bit
        string that decodes to an isomorphic phase — same routing, same
        FLOPs, same forward function up to weight values.  This method
        picks one representative per isomorphism class by brute-forcing
        all direction-preserving node permutations (at most ``n!``;
        the paper's phases have 4 nodes, so 24) and keeping the minimal
        bit tuple — once per distinct phase *value*
        (:func:`_canonical_bits` is memoised), and returning ``self``
        when it already is the representative.  The skip bit is routing
        around the *whole* phase and is unaffected by relabeling.

        Dead-edge pruning is intentionally a no-op here: in this
        decoder every node computes (sourceless nodes read the adapted
        phase input, sinkless nodes feed the phase output — see
        :meth:`active_nodes`), so the encoding has no dead structure to
        remove; isomorphic relabeling is the only true redundancy.
        """
        if self.n_nodes > _CANONICAL_MAX_NODES:
            return self
        best = _canonical_bits(self.n_nodes, self.bits)
        if best == self.bits:
            return self
        return PhaseGenome(self.n_nodes, best)


@dataclass(frozen=True)
class Genome:
    """A full architecture genome: one :class:`PhaseGenome` per phase."""

    phases: tuple

    def __post_init__(self) -> None:
        phases = tuple(self.phases)
        if not phases:
            raise ValueError("genome needs at least one phase")
        if any(not isinstance(p, PhaseGenome) for p in phases):
            raise TypeError("phases must be PhaseGenome instances")
        object.__setattr__(self, "phases", phases)

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    @property
    def nodes_per_phase(self) -> tuple:
        return tuple(p.n_nodes for p in self.phases)

    def to_bits(self) -> tuple:
        """Flatten to the genetic-operator representation."""
        return tuple(b for phase in self.phases for b in phase.bits)

    @classmethod
    def from_bits(cls, bits, nodes_per_phase) -> "Genome":
        """Rebuild from a flat bit tuple and the per-phase node counts."""
        bits = tuple(int(b) for b in bits)
        phases = []
        cursor = 0
        for n_nodes in nodes_per_phase:
            width = n_connection_bits(n_nodes) + 1
            phases.append(PhaseGenome(n_nodes, bits[cursor : cursor + width]))
            cursor += width
        if cursor != len(bits):
            raise ValueError(
                f"bit string length {len(bits)} does not match phases "
                f"{tuple(nodes_per_phase)} (expected {cursor})"
            )
        return cls(tuple(phases))

    def to_dict(self) -> dict:
        """Lineage-record form."""
        return {
            "nodes_per_phase": list(self.nodes_per_phase),
            "bits": list(self.to_bits()),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Genome":
        return cls.from_bits(payload["bits"], payload["nodes_per_phase"])

    def key(self) -> str:
        """Compact architecture identifier, e.g. ``"0110101-0010011-1100110"``."""
        return "-".join("".join(str(b) for b in p.bits) for p in self.phases)

    def canonical(self) -> "Genome":
        """Connectivity-normalized genome: each phase canonicalized.

        Genomes decoding to isomorphic networks share one canonical
        form, which is what the evaluation cache and the genome-keyed
        RNG policy key on (see :meth:`PhaseGenome.canonical`).
        """
        return self._canonical[0]

    def canonical_key(self) -> str:
        """:meth:`key` of the canonical form — equal across isomorphic genomes."""
        return self._canonical[1]

    @cached_property
    def _canonical(self) -> tuple:
        # (canonical form, its key): the permutation search runs once per
        # genome however many cache, RNG and FLOP lookups ask for it.  Not
        # a dataclass field, so equality, hashing and to_dict ignore it.
        phases = tuple(p.canonical() for p in self.phases)
        if all(c is p for c, p in zip(phases, self.phases)):
            return self, self.key()
        form = Genome(phases)
        return form, form.key()

    @property
    def n_connections(self) -> int:
        """Total set connection bits across phases."""
        return sum(p.n_connections for p in self.phases)

    @property
    def n_skips(self) -> int:
        """Number of phases with a residual skip."""
        return sum(1 for p in self.phases if p.skip)


def random_genome(
    rng: np.random.Generator,
    *,
    n_phases: int = 3,
    nodes_per_phase: int = 4,
    density: float = 0.5,
) -> Genome:
    """Sample a genome with i.i.d. Bernoulli(``density``) bits."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    phases = []
    for _ in range(n_phases):
        width = n_connection_bits(nodes_per_phase) + 1
        bits = (rng.random(width) < density).astype(int)
        phases.append(PhaseGenome(nodes_per_phase, tuple(bits)))
    return Genome(tuple(phases))
