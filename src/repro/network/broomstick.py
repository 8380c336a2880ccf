"""The broomstick reduction of Section 3.3.

Given any legal tree ``T`` the reduction builds a *broomstick* ``T'``:

* ``T'`` keeps the root and one root-adjacent node per root-adjacent node
  of ``T``;
* below each root-adjacent node ``v0`` it places a single router path
  (the *handle*) long enough to host every leaf of the original subtree;
* every leaf ``v`` of ``T`` at distance ``ℓ'`` (edges) from ``v0``
  reappears in ``T'`` hanging off handle node ``v_{ℓ'+1}``, so its
  distance from ``v0`` grows from ``ℓ'`` to ``ℓ' + 2`` — exactly the
  ``+2`` depth shift the paper notes.

The extended abstract describes the handle as nodes ``v_0 .. v_ℓ`` where
``ℓ`` is the longest ``v0``-to-leaf distance, yet attaches a deepest leaf
(distance ``ℓ``) to ``v_{ℓ+1}``.  We resolve this off-by-one by building
the handle with nodes ``v_0 .. v_{ℓ+1}`` (``ℓ + 2`` nodes) so that every
attachment point exists; this matches the stated ``+2`` depth shift for
every leaf and changes no argument in the paper.

In the identical setting the new leaves are ordinary identical nodes; in
the unrelated-endpoint setting a job's processing time on the copied leaf
equals its processing time on the original leaf (handled by
``Instance.on_broomstick`` in :mod:`repro.workload.instance`, which uses
the :attr:`BroomstickReduction.leaf_map` built here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import TopologyError
from repro.network.tree import TreeNetwork

__all__ = ["BroomstickReduction", "reduce_to_broomstick"]


@dataclass(frozen=True)
class BroomstickReduction:
    """The result of reducing a tree ``T`` to its broomstick ``T'``.

    Attributes
    ----------
    original:
        The input tree ``T``.
    broomstick:
        The reduced tree ``T'``.
    leaf_map:
        ``leaf id in T -> leaf id in T'``; the correspondence used by the
        general-tree algorithm of Section 3.7 to copy leaf assignments
        back from the broomstick simulation.
    top_map:
        ``root-adjacent node in T -> root-adjacent node in T'``.
    handle_of:
        ``root-adjacent node in T' -> tuple of handle node ids`` (the
        spine ``v_0 .. v_{ℓ+1}``), for structural audits.
    """

    original: TreeNetwork
    broomstick: TreeNetwork
    leaf_map: dict[int, int] = field(repr=False)
    top_map: dict[int, int] = field(repr=False)
    handle_of: dict[int, tuple[int, ...]] = field(repr=False)

    @property
    def inverse_leaf_map(self) -> dict[int, int]:
        """``leaf id in T' -> leaf id in T``."""
        return {v2: v1 for v1, v2 in self.leaf_map.items()}

    def depth_shift(self, leaf: int) -> int:
        """Depth increase of ``leaf`` (id in ``T``) under the reduction.

        The reduction guarantees this is exactly 2 for every leaf.
        """
        if leaf not in self.leaf_map:
            raise TopologyError(f"node {leaf} is not a leaf of the original tree")
        return self.broomstick.depth(self.leaf_map[leaf]) - self.original.depth(leaf)


def reduce_to_broomstick(tree: TreeNetwork) -> BroomstickReduction:
    """The broomstick ``T'`` of ``tree`` per Section 3.3.

    The returned object carries the leaf correspondence map needed to
    translate leaf assignments between the two trees.  It is built once
    per tree and kept on it, so every caller shares one reduction (and
    one ``T'``): it must not be mutated.
    """
    return tree._memo("broomstick", lambda: _build_broomstick(tree))


def _build_broomstick(tree: TreeNetwork) -> BroomstickReduction:
    parent_map: dict[int, int | None] = {}
    names: dict[int, str] = {}
    next_id = 0

    def new_node(parent: int | None, name: str) -> int:
        nonlocal next_id
        v = next_id
        next_id += 1
        parent_map[v] = parent
        names[v] = name
        return v

    root = new_node(None, "root'")
    leaf_map: dict[int, int] = {}
    top_map: dict[int, int] = {}
    handle_of: dict[int, tuple[int, ...]] = {}

    for v0 in tree.root_children:
        sub_leaves = tree.leaves_under(v0)
        # Edge distance from v0 to each leaf of its subtree.
        dist = {leaf: tree.depth(leaf) - tree.depth(v0) for leaf in sub_leaves}
        ell = max(dist.values(), default=0)
        # Handle nodes v_0 .. v_{ell+1}; v_0 corresponds to v0 itself.
        handle: list[int] = []
        parent: int | None = root
        for i in range(ell + 2):
            parent = new_node(parent, f"h{v0}.{i}")
            handle.append(parent)
        top_map[v0] = handle[0]
        handle_of[handle[0]] = tuple(handle)
        for leaf in sub_leaves:
            attach = handle[dist[leaf] + 1]
            leaf_map[leaf] = new_node(attach, f"leaf'{leaf}")

    reduced = TreeNetwork(parent_map, names)
    if not reduced.is_broomstick():  # pragma: no cover - construction guarantee
        raise TopologyError("internal error: reduction did not produce a broomstick")
    return BroomstickReduction(
        original=tree,
        broomstick=reduced,
        leaf_map=leaf_map,
        top_map=top_map,
        handle_of=handle_of,
    )
