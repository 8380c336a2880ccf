"""The :class:`TreeNetwork` topology object.

``TreeNetwork`` is an immutable rooted tree offering exactly the
structural accessors used throughout the paper:

======================  =====================================================
Paper notation           Accessor
======================  =====================================================
``ρ(v)``                 :meth:`TreeNetwork.parent`
``c(v)``                 :meth:`TreeNetwork.children`
``R(v)``                 :meth:`TreeNetwork.top_router` — the root-adjacent
                         ancestor of ``v``
``L(v)``                 :meth:`TreeNetwork.leaves_under`
``d_v``                  :meth:`TreeNetwork.d` — number of nodes on the path
                         ``v .. R(v)`` inclusive of both endpoints
``\\mathcal{L}``          :attr:`TreeNetwork.leaves`
``\\mathcal{R}``          :attr:`TreeNetwork.root_children`
processing path          :meth:`TreeNetwork.processing_path` — the nodes a
                         job assigned to a leaf must be processed on, i.e.
                         the root-to-leaf path *excluding* the root
======================  =====================================================

Instances are validated on construction against the model's structural
requirements (single root, connectivity, no leaf adjacent to the root).
Because a tree never changes, what is derived from it alone (the
broomstick reduction, the compiled kernel's topology plans) is built on
first use and kept on the tree, outside ``repr`` and pickles.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from repro.exceptions import TopologyError
from repro.network.node import Node, NodeKind

if TYPE_CHECKING:  # pragma: no cover
    import networkx

__all__ = ["TreeNetwork"]


class TreeNetwork:
    """An immutable rooted tree network.

    Parameters
    ----------
    parent_map:
        Mapping ``node id -> parent id``; the single node mapped to
        ``None`` is the root.  Ids must form a dense or sparse set of
        non-negative integers (they are used as dict keys, not indices).
    names:
        Optional mapping from node id to display name.
    allow_leaf_under_root:
        The paper's model forbids leaves adjacent to the root ("no leaf is
        adjacent to the root", Section 2).  Pass ``True`` only for
        counter-example construction in tests.

    Raises
    ------
    TopologyError
        If the mapping does not describe a rooted tree satisfying the
        model's requirements.
    """

    __slots__ = (
        "_nodes",
        "_root",
        "_leaves",
        "_root_children",
        "_routers",
        "_top_router",
        "_leaves_under",
        "_order",
        "_height",
        "_kept",
    )

    def __init__(
        self,
        parent_map: Mapping[int, int | None],
        names: Mapping[int, str] | None = None,
        *,
        allow_leaf_under_root: bool = False,
    ) -> None:
        names = dict(names or {})
        if not parent_map:
            raise TopologyError("a tree network needs at least one node")

        roots = [v for v, p in parent_map.items() if p is None]
        if len(roots) != 1:
            raise TopologyError(
                f"expected exactly one root (parent None), found {len(roots)}"
            )
        root = roots[0]

        children: dict[int, list[int]] = {v: [] for v in parent_map}
        for v, p in parent_map.items():
            if v == p:
                raise TopologyError(f"node {v} is its own parent")
            if p is None:
                continue
            if p not in parent_map:
                raise TopologyError(f"node {v} has unknown parent {p}")
            children[p].append(v)

        # Depth-first walk from the root assigns depths and detects
        # disconnected components or cycles (unreached nodes).
        depth: dict[int, int] = {root: 0}
        order: list[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for c in sorted(children[v], reverse=True):
                depth[c] = depth[v] + 1
                stack.append(c)
        if len(order) != len(parent_map):
            unreachable = sorted(set(parent_map) - set(order))
            raise TopologyError(
                f"nodes not reachable from root {root}: {unreachable[:10]}"
            )

        nodes: dict[int, Node] = {}
        for v in parent_map:
            kids = tuple(sorted(children[v]))
            if v == root:
                kind = NodeKind.ROOT
            elif not kids:
                kind = NodeKind.LEAF
            else:
                kind = NodeKind.ROUTER
            nodes[v] = Node(
                id=v,
                kind=kind,
                parent=parent_map[v],
                children=kids,
                depth=depth[v],
                name=names.get(v, ""),
            )

        root_children = tuple(nodes[root].children)
        if not root_children:
            raise TopologyError("the root has no children; there are no machines")
        if not allow_leaf_under_root:
            bad = [v for v in root_children if nodes[v].is_leaf]
            if bad:
                raise TopologyError(
                    "the model forbids leaves adjacent to the root; offending "
                    f"nodes: {bad}"
                )

        leaves = tuple(v for v in order if nodes[v].is_leaf)
        if not leaves:
            raise TopologyError("the tree has no leaves (no machines)")
        routers = tuple(
            v for v in order if nodes[v].is_router
        )

        # R(v): root-adjacent ancestor, computed top-down along `order`
        # (which is a preorder, so parents precede children).
        top_router: dict[int, int] = {}
        for v in order:
            if v == root:
                continue
            p = parent_map[v]
            top_router[v] = v if p == root else top_router[p]  # type: ignore[index]

        # L(v): leaves in the subtree rooted at v, accumulated bottom-up.
        leaves_under: dict[int, tuple[int, ...]] = {}
        for v in reversed(order):
            if nodes[v].is_leaf:
                leaves_under[v] = (v,)
            else:
                acc: list[int] = []
                for c in nodes[v].children:
                    acc.extend(leaves_under[c])
                leaves_under[v] = tuple(acc)

        self._nodes = nodes
        self._root = root
        self._leaves = leaves
        self._root_children = root_children
        self._routers = routers
        self._top_router = top_router
        self._leaves_under = leaves_under
        self._order = tuple(order)
        self._height = max(depth.values())

    def __getstate__(self):
        # The kept derivations stay behind: they may hold ctypes data,
        # which does not pickle, and they are rebuilt on first use.
        return None, {
            name: getattr(self, name) for name in self.__slots__ if name != "_kept"
        }

    def _memo(self, key, build):
        """``build()``, built on first use and kept under ``key``."""
        try:
            kept = self._kept
        except AttributeError:
            kept = self._kept = {}
        if key not in kept:
            kept[key] = build()
        return kept[key]

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        """Id of the root (distribution centre)."""
        return self._root

    @property
    def leaves(self) -> tuple[int, ...]:
        """All machine nodes, in preorder — the paper's set ``L``."""
        return self._leaves

    @property
    def root_children(self) -> tuple[int, ...]:
        """Nodes adjacent to the root — the paper's set ``R``."""
        return self._root_children

    @property
    def routers(self) -> tuple[int, ...]:
        """All interior (non-root, non-leaf) nodes, in preorder."""
        return self._routers

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All node ids in preorder (root first)."""
        return self._order

    @property
    def num_nodes(self) -> int:
        """Total number of nodes including the root."""
        return len(self._nodes)

    @property
    def num_leaves(self) -> int:
        """Number of machines."""
        return len(self._leaves)

    @property
    def height(self) -> int:
        """Maximum depth over all nodes (root depth is ``0``)."""
        return self._height

    def node(self, v: int) -> Node:
        """The :class:`~repro.network.node.Node` with id ``v``."""
        try:
            return self._nodes[v]
        except KeyError:
            raise TopologyError(f"unknown node id {v}") from None

    def __contains__(self, v: int) -> bool:
        return v in self._nodes

    def __iter__(self) -> Iterator[Node]:
        return (self._nodes[v] for v in self._order)

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # paper accessors
    # ------------------------------------------------------------------
    def parent(self, v: int) -> int | None:
        """``ρ(v)`` — the parent of ``v`` (``None`` for the root)."""
        return self.node(v).parent

    def children(self, v: int) -> tuple[int, ...]:
        """``c(v)`` — the children of ``v``."""
        return self.node(v).children

    def depth(self, v: int) -> int:
        """Number of edges from the root down to ``v``."""
        return self.node(v).depth

    def top_router(self, v: int) -> int:
        """``R(v)`` — the root-adjacent ancestor of non-root node ``v``.

        For a node adjacent to the root this is ``v`` itself.
        """
        if v == self._root:
            raise TopologyError("R(v) is undefined for the root")
        try:
            return self._top_router[v]
        except KeyError:
            raise TopologyError(f"unknown node id {v}") from None

    def leaves_under(self, v: int) -> tuple[int, ...]:
        """``L(v)`` — the leaves of the subtree rooted at ``v``."""
        if v not in self._nodes:
            raise TopologyError(f"unknown node id {v}")
        return self._leaves_under[v]

    def d(self, v: int) -> int:
        """``d_v`` — node count of the path ``v .. R(v)`` inclusive.

        A node adjacent to the root has ``d_v == 1``; a leaf of a
        processing path of ``k`` nodes has ``d_v == k``.
        """
        return self.node(v).depth  # depth counts edges from root == nodes from R(v)

    def processing_path(self, leaf: int) -> tuple[int, ...]:
        """The nodes a job assigned to ``leaf`` is processed on, in order.

        This is the root-to-leaf path with the root excluded: it starts at
        ``R(leaf)`` and ends at ``leaf``.
        """
        node = self.node(leaf)
        if not node.is_leaf:
            raise TopologyError(f"node {leaf} is not a leaf")
        path: list[int] = []
        v: int | None = leaf
        while v is not None and v != self._root:
            path.append(v)
            v = self._nodes[v].parent
        path.reverse()
        return tuple(path)

    def path_between(self, ancestor: int, descendant: int) -> tuple[int, ...]:
        """Nodes from ``ancestor`` down to ``descendant``, both inclusive.

        Raises
        ------
        TopologyError
            If ``ancestor`` is not actually an ancestor of ``descendant``.
        """
        path: list[int] = []
        v: int | None = descendant
        while v is not None:
            path.append(v)
            if v == ancestor:
                path.reverse()
                return tuple(path)
            v = self._nodes[v].parent
        raise TopologyError(f"{ancestor} is not an ancestor of {descendant}")

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """Whether ``ancestor`` lies on the root path of ``descendant``.

        A node is considered an ancestor of itself.
        """
        v: int | None = descendant
        while v is not None:
            if v == ancestor:
                return True
            v = self._nodes[v].parent
        return False

    # ------------------------------------------------------------------
    # structure predicates
    # ------------------------------------------------------------------
    def is_broomstick(self) -> bool:
        """Whether this tree is a *broomstick* in the sense of Section 3.3.

        Each child ``v0`` of the root heads a single downward path of
        routers (every router on it has exactly one router child or none),
        and every leaf hangs directly off one of the path nodes.
        """
        for top in self._root_children:
            v = top
            while True:
                kids = self._nodes[v].children
                router_kids = [c for c in kids if self._nodes[c].is_router]
                if len(router_kids) > 1:
                    return False
                if not router_kids:
                    break
                v = router_kids[0]
        return True

    def spine_of(self, top: int) -> tuple[int, ...]:
        """The router path headed by root-child ``top`` in a broomstick.

        Returns the maximal chain of routers starting at ``top`` where each
        step descends into the unique router child.

        Raises
        ------
        TopologyError
            If ``top`` is not adjacent to the root, or if some node on the
            chain has more than one router child (not a broomstick spine).
        """
        if top not in self._root_children:
            raise TopologyError(f"node {top} is not adjacent to the root")
        spine = [top]
        v = top
        while True:
            router_kids = [c for c in self._nodes[v].children if self._nodes[c].is_router]
            if len(router_kids) > 1:
                raise TopologyError(
                    f"node {v} has {len(router_kids)} router children; "
                    "not a broomstick spine"
                )
            if not router_kids:
                return tuple(spine)
            v = router_kids[0]
            spine.append(v)

    # ------------------------------------------------------------------
    # export / rendering
    # ------------------------------------------------------------------
    def parent_map(self) -> dict[int, int | None]:
        """The ``node -> parent`` mapping this tree was built from."""
        return {v: self._nodes[v].parent for v in self._order}

    def to_networkx(self) -> "networkx.DiGraph":
        """Export as a ``networkx.DiGraph`` with edges parent→child."""
        import networkx as nx

        g = nx.DiGraph()
        for node in self:
            g.add_node(node.id, kind=node.kind.value, depth=node.depth, name=node.name)
            if node.parent is not None:
                g.add_edge(node.parent, node.id)
        return g

    def render_ascii(self) -> str:
        """A plain-text rendering of the topology, one node per line."""
        lines: list[str] = []

        def walk(v: int, prefix: str, is_last: bool) -> None:
            node = self._nodes[v]
            if node.is_root:
                lines.append(f"{node.label()}")
                child_prefix = ""
            else:
                branch = "`-- " if is_last else "|-- "
                lines.append(f"{prefix}{branch}{node.label()}")
                child_prefix = prefix + ("    " if is_last else "|   ")
            kids = node.children
            for i, c in enumerate(kids):
                walk(c, child_prefix, i == len(kids) - 1)

        walk(self._root, "", True)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"TreeNetwork(nodes={self.num_nodes}, leaves={self.num_leaves}, "
            f"height={self.height}, broomstick={self.is_broomstick()})"
        )

    # ------------------------------------------------------------------
    # derived helpers used by workloads and algorithms
    # ------------------------------------------------------------------
    def leaf_index(self) -> dict[int, int]:
        """Dense index ``leaf id -> position`` for array-backed leaf data."""
        return {leaf: i for i, leaf in enumerate(self._leaves)}

    def subtree_node_ids(self, v: int) -> tuple[int, ...]:
        """All node ids in the subtree rooted at ``v`` (preorder)."""
        if v not in self._nodes:
            raise TopologyError(f"unknown node id {v}")
        out: list[int] = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(reversed(self._nodes[u].children))
        return tuple(out)

    @staticmethod
    def from_edges(
        root: int, edges: Iterable[tuple[int, int]], names: Mapping[int, str] | None = None
    ) -> "TreeNetwork":
        """Build from a root id and parent→child edge list."""
        parent_of: dict[int, int] = {}
        seen: set[int] = {root}
        for p, c in edges:
            if c in parent_of and parent_of[c] != p:
                raise TopologyError(f"node {c} listed with two parents")
            if c == root:
                raise TopologyError("the root cannot appear as a child")
            parent_of[c] = p
            seen.add(p)
            seen.add(c)
        parent_map: dict[int, int | None] = {root: None}
        for v in seen:
            if v != root:
                if v not in parent_of:
                    raise TopologyError(f"node {v} has no parent edge")
                parent_map[v] = parent_of[v]
        return TreeNetwork(parent_map, names)
