"""Finite closed-surface complexes and their JSON interchange format.

A :class:`SurfaceComplex` is a purely combinatorial closed orientable
surface: vertices, edges (unordered vertex pairs keyed by id, so parallel
edges are representable), and faces given as cyclic edge-id sequences.
Every complex is validated on construction; instances are immutable and
safe to share between threads.

The JSON format accepted by :func:`load_complex`/:func:`save_complex`::

    { "genus": int, "label": str,
      "vertices": [int, ...],
      "edges":  [{"id": int, "ends": [int, int]}, ...],
      "faces":  [{"id": int, "edge_cycle": [int, ...]}, ...] }

Unknown keys are rejected.  This is the ingestion path for hyperbolic
complexes, which this package checks but does not generate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

from .errors import ComplexError

_HEAD = 0
_TAIL = 1


def normalize_cycle(cycle: Iterable[int]) -> tuple[int, ...]:
    """Lexicographically minimal rotation/reflection of a cyclic sequence."""
    seq = tuple(cycle)
    if not seq:
        return seq
    candidates = []
    for base in (seq, seq[::-1]):
        for k in range(len(base)):
            candidates.append(base[k:] + base[:k])
    return min(candidates)


@dataclass(eq=False)
class ComplexIndex:
    """The dense numbering of one complex, shared by every algebraic layer.

    ``edge_ids`` is the dense edge order (ascending ids) and ``bit`` maps an
    edge id to its bit position in every edge mask; ``slots`` maps an edge
    to its two (face, position) slots in ascending order; ``face_masks`` and
    ``star_masks`` are the Z2 face boundaries and vertex stars over that
    order.  Validation builds these.  ``chain`` and ``bases`` are filled on
    first use by :mod:`atqc.homology`; threads racing to fill one compute
    equal values, so no lock is needed.  Nothing mutates what the index
    hands out.
    """

    edge_ids: tuple[int, ...]
    bit: dict[int, int]
    vertex_ids: tuple[int, ...]
    face_ids: tuple[int, ...]
    slots: dict[int, list[tuple[int, int]]]
    face_masks: dict[int, int]
    star_masks: dict[int, int]
    chain: object = None
    bases: tuple | None = None


class SurfaceComplex:
    """Immutable combinatorial closed surface of a given genus."""

    def __init__(
        self,
        genus: int,
        vertices: Iterable[int],
        edges: Mapping[int, tuple[int, int]],
        faces: Mapping[int, Iterable[int]],
        label: str = "",
    ):
        self.genus = int(genus)
        self.label = str(label)
        self.vertices = tuple(vertices)
        self.edges = {int(e): (int(u), int(v)) for e, (u, v) in edges.items()}
        self.faces = {int(f): tuple(int(e) for e in cyc) for f, cyc in faces.items()}
        self._validate()

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    def __repr__(self) -> str:
        return (
            f"SurfaceComplex(genus={self.genus}, V={self.num_vertices}, "
            f"E={self.num_edges}, F={self.num_faces}, label={self.label!r})"
        )

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        if self.genus < 1:
            raise ComplexError(f"genus must be >= 1, got {self.genus}")
        if len(set(self.vertices)) != len(self.vertices):
            raise ComplexError("duplicate vertex ids")
        edge_ids = tuple(sorted(self.edges))
        bit = {e: i for i, e in enumerate(edge_ids)}
        stars = {v: 0 for v in self.vertices}
        for e, (u, v) in self.edges.items():
            if u not in stars or v not in stars:
                raise ComplexError(f"edge {e} references unknown vertex")
            if u != v:
                stars[u] ^= 1 << bit[e]
                stars[v] ^= 1 << bit[e]
        face_ids = tuple(sorted(self.faces))
        slots: dict[int, list[tuple[int, int]]] = {e: [] for e in edge_ids}
        face_masks = {}
        for f in face_ids:
            if not self.faces[f]:
                raise ComplexError(f"face {f} has an empty edge cycle")
            mask = 0
            for t, e in enumerate(self.faces[f]):
                if e not in slots:
                    raise ComplexError(f"face {f} references unknown edge {e}")
                slots[e].append((f, t))
                mask ^= 1 << bit[e]
            face_masks[f] = mask
        bad = [e for e, s in slots.items() if len(s) != 2]
        if bad:
            raise ComplexError(
                f"edge {bad[0]} borders {len(slots[bad[0]])} face-slots, expected exactly 2"
            )
        self.index = ComplexIndex(
            edge_ids, bit, tuple(sorted(self.vertices)), face_ids, slots, face_masks, stars
        )
        self._walks = {f: self._face_walk(f) for f in self.faces}
        if not self._connected():
            raise ComplexError("complex is not connected")
        chi = self.euler_characteristic
        if chi != 2 - 2 * self.genus:
            raise ComplexError(
                f"Euler characteristic {chi} inconsistent with genus {self.genus} "
                f"(expected {2 - 2 * self.genus})"
            )
        self.degenerate_faces = tuple(
            f for f in face_ids if len(set(self.faces[f])) < len(self.faces[f])
        )

    def _face_walk(self, face: int) -> tuple[int, ...]:
        """Vertex sequence x_0..x_{k-1} with edge t joining x_t, x_{t+1}."""
        cyc = self.faces[face]
        for start in self.edges[cyc[0]]:
            walk = [start]
            x = start
            ok = True
            for e in cyc:
                u, v = self.edges[e]
                if x == u:
                    x = v
                elif x == v:
                    x = u
                else:
                    ok = False
                    break
                walk.append(x)
            if ok and x == walk[0]:
                return tuple(walk[:-1])
        raise ComplexError(
            f"face {face} edge cycle is not a closed edge path "
            "(consecutive edges must chain through shared vertices)"
        )

    def _connected(self) -> bool:
        if not self.vertices:
            return False
        adjacency: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges.values():
            adjacency[u].append(v)
            adjacency[v].append(u)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    # -- derived structure ------------------------------------------------

    def edge_slots(self) -> dict[int, list[tuple[int, int]]]:
        """Edge id -> the two (face, position) slots bordering it."""
        return self.index.slots

    def face_walk(self, face: int) -> tuple[int, ...]:
        return self._walks[face]

    def vertex_degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for u, v in self.edges.values():
            deg[u] += 1
            deg[v] += 1
        return deg


def dual_complex(c: SurfaceComplex) -> SurfaceComplex:
    """Dual surface: vertices and faces swap roles, edge ids are shared.

    The dual face around a primal vertex is read off the vertex link,
    reconstructed from the face walks; a vertex whose link is not a single
    cycle means the input was not a closed surface and is rejected.
    """
    slots = c.index.slots
    # corner matching M1 and edge-side matching M2 on slot-end instances
    instance_vertex: dict[tuple[int, int, int], int] = {}
    m1: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for f in c.faces:
        cyc = c.faces[f]
        walk = c.face_walk(f)
        k = len(cyc)
        for t in range(k):
            head = (f, t, _HEAD)  # end of slot t at x_{t+1}
            tail = (f, t, _TAIL)  # end of slot t at x_t
            instance_vertex[head] = walk[(t + 1) % k]
            instance_vertex[tail] = walk[t]
            nxt = (f, (t + 1) % k, _TAIL)
            m1[head] = nxt
            m1[nxt] = head
    m2: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for e, (u, v) in c.edges.items():
        (f1, t1), (f2, t2) = slots[e]
        if u == v:
            m2[(f1, t1, _HEAD)] = (f2, t2, _TAIL)
            m2[(f2, t2, _TAIL)] = (f1, t1, _HEAD)
            m2[(f1, t1, _TAIL)] = (f2, t2, _HEAD)
            m2[(f2, t2, _HEAD)] = (f1, t1, _TAIL)
        else:
            for w in (u, v):
                a = (f1, t1, _HEAD) if instance_vertex[(f1, t1, _HEAD)] == w else (f1, t1, _TAIL)
                b = (f2, t2, _HEAD) if instance_vertex[(f2, t2, _HEAD)] == w else (f2, t2, _TAIL)
                m2[a] = b
                m2[b] = a

    dual_faces: dict[int, tuple[int, ...]] = {}
    visited: set[tuple[int, int, int]] = set()
    per_vertex_cycles = {v: 0 for v in c.vertices}
    for inst in sorted(instance_vertex):
        if inst in visited:
            continue
        v = instance_vertex[inst]
        ring = []
        cur = inst
        while cur not in visited:
            visited.add(cur)
            other_side = m2[cur]
            visited.add(other_side)
            ring.append(c.faces[cur[0]][cur[1]])
            cur = m1[other_side]
        per_vertex_cycles[v] += 1
        if per_vertex_cycles[v] > 1:
            raise ComplexError(
                f"vertex {v} link splits into multiple cycles; not a closed surface"
            )
        dual_faces[v] = normalize_cycle(ring)
    missing = [v for v, k in per_vertex_cycles.items() if k == 0]
    if missing:
        raise ComplexError(f"vertex {missing[0]} has no incident face corner")

    dual_edges = {}
    for e in c.edges:
        (f1, _), (f2, _) = slots[e]
        dual_edges[e] = (f1, f2)
    return SurfaceComplex(
        genus=c.genus,
        vertices=c.index.face_ids,
        edges=dual_edges,
        faces=dual_faces,
        label=f"dual({c.label})" if c.label else "dual",
    )


# -- JSON interchange ------------------------------------------------------

_TOP_KEYS = {"genus", "label", "vertices", "edges", "faces"}


def complex_to_dict(c: SurfaceComplex) -> dict:
    return {
        "genus": c.genus,
        "label": c.label,
        "vertices": list(c.index.vertex_ids),
        "edges": [{"id": e, "ends": list(c.edges[e])} for e in c.index.edge_ids],
        "faces": [
            {"id": f, "edge_cycle": list(normalize_cycle(c.faces[f]))}
            for f in c.index.face_ids
        ],
    }


def _as_id(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ComplexError(f"{what} must be an integer, got {value!r}")
    return value


def complex_from_dict(doc: dict) -> SurfaceComplex:
    if not isinstance(doc, dict):
        raise ComplexError("complex document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ComplexError(f"unknown key {min(unknown)!r} in complex document")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise ComplexError(f"missing key {min(missing)!r} in complex document")
    if not isinstance(doc["label"], str):
        raise ComplexError("label must be a string")
    for key in ("vertices", "edges", "faces"):
        if not isinstance(doc[key], list):
            raise ComplexError(f"{key} must be a list")
    genus = _as_id(doc["genus"], "genus")
    vertices = [_as_id(v, "vertex id") for v in doc["vertices"]]
    edges = {}
    for item in doc["edges"]:
        if not isinstance(item, dict) or set(item) != {"id", "ends"}:
            raise ComplexError("edge entries must have exactly the keys 'id' and 'ends'")
        if not isinstance(item["ends"], list) or len(item["ends"]) != 2:
            raise ComplexError(f"edge {item['id']} must have exactly two ends")
        eid = _as_id(item["id"], "edge id")
        if eid in edges:
            raise ComplexError(f"duplicate edge id {eid}")
        edges[eid] = (_as_id(item["ends"][0], "edge end"), _as_id(item["ends"][1], "edge end"))
    faces = {}
    for item in doc["faces"]:
        if not isinstance(item, dict) or set(item) != {"id", "edge_cycle"}:
            raise ComplexError(
                "face entries must have exactly the keys 'id' and 'edge_cycle'"
            )
        fid = _as_id(item["id"], "face id")
        if fid in faces:
            raise ComplexError(f"duplicate face id {fid}")
        if not isinstance(item["edge_cycle"], list):
            raise ComplexError(f"face {fid} edge_cycle must be a list")
        faces[fid] = tuple(_as_id(e, "face edge") for e in item["edge_cycle"])
    return SurfaceComplex(
        genus=genus,
        vertices=vertices,
        edges=edges,
        faces=faces,
        label=doc["label"],
    )


def save_complex(c: SurfaceComplex, sink: IO[str]) -> None:
    json.dump(complex_to_dict(c), sink, indent=1, sort_keys=True)
    sink.write("\n")


def load_complex(source: IO[str]) -> SurfaceComplex:
    try:
        doc = json.load(source)
    except json.JSONDecodeError as exc:
        raise ComplexError(f"malformed JSON: {exc}") from exc
    return complex_from_dict(doc)
