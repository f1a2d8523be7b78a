"""Finite closed-surface complexes and their JSON interchange format.

A :class:`SurfaceComplex` is a purely combinatorial closed orientable
surface: vertices, edges (unordered vertex pairs keyed by id, so parallel
edges and loops are representable), and faces given as cyclic edge-id
sequences.  Every complex is validated on construction; instances are
immutable and safe to share between threads.

Validation reads the complex as an oriented combinatorial map: the darts
are the face slots, alpha pairs an edge's two slots, phi steps along a
face, faces are oriented so that both slots of a non-loop edge run it
opposite ways, and the cycles of sigma = phi . alpha are the vertex
rotations (``rotations``).  What no vertex decides (the direction of
faces tied on only by loops, the order of a face alternating between two
vertices) is read as stored, then reversed in turn while a vertex is
pinched, at most 16 times (``_MAX_REVERSALS``); README.md states the
rule.  A complex that is not orientable, pinched, not connected, or whose
Euler characteristic disagrees with its genus raises
:class:`ComplexError`.  The dual swaps phi and sigma.

The JSON format accepted by :func:`load_complex`/:func:`save_complex`::

    { "genus": int, "label": str,
      "vertices": [int, ...],
      "edges":  [{"id": int, "ends": [int, int]}, ...],
      "faces":  [{"id": int, "edge_cycle": [int, ...]}, ...] }

Unknown keys are rejected.  Faces and ends are written as stored, so a
saved complex loads back as the same map.  This is the ingestion path for
hyperbolic complexes, which this package checks but does not generate.
"""
from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import chain, compress, count
from operator import itemgetter
from typing import IO

from .errors import ComplexError, _as_int

# the most pieces and alternating faces the reading reverses while a vertex is pinched
_MAX_REVERSALS = 16


class ComplexIndex:
    """The dense numbering of one complex, shared by every algebraic layer.

    Every list here is indexed by dense dart, edge, vertex or face numbers
    and holds such numbers; ``edge_ids``, ``vertex_ids`` and ``face_ids``
    name them by ascending id, and ``bit`` (edge id -> edge number, its bit
    in every edge mask) is the only bridge from ids.  The darts are the face
    slots in (face id, position) order: ``alpha`` pairs an edge's two, ``phi``
    steps along a face as read, ``dart_vertex`` and ``dart_face`` give the
    vertex whose rotation holds a dart and its face.  ``ends[0][e]`` and
    ``ends[1][e]`` are edge e's stored ends and the faces of its two slots.
    Validation builds these; the index holds no face boundary or vertex
    star, which :func:`atqc.stabilizer.build_css` builds from ``ends`` as
    check rows on request.  ``bases`` and ``sides`` are filled on first use
    by :mod:`atqc.homology`, ``orbits`` by :mod:`atqc.distance`.  ``sides[0]``
    (vertex graph) and ``sides[1]`` (face adjacency) are each (node ->
    [(edge, neighbour)], one word per edge whose bit i says cocycle i, resp.
    cycle i, holds it).  Threads racing to fill a field compute equal values,
    so no lock is needed; ``sides`` is set first, so whoever sees ``bases``
    sees it too.  Nothing mutates what the index hands out.
    """

    __slots__ = ("edge_ids", "bit", "vertex_ids", "face_ids", "ends", "alpha", "phi",
                 "dart_vertex", "dart_face", "sides", "bases", "orbits")

    def __init__(self, edge_ids: tuple, bit: dict, vertex_ids: tuple, face_ids: tuple,
                 ends: tuple[list, list], alpha: list, phi: list, dart_vertex: list, dart_face: list):
        self.edge_ids, self.bit, self.vertex_ids, self.face_ids = edge_ids, bit, vertex_ids, face_ids
        self.ends, self.alpha, self.phi = ends, alpha, phi
        self.dart_vertex, self.dart_face = dart_vertex, dart_face
        self.sides = self.bases = self.orbits = None


def _sorted_ids(ids, what: str) -> tuple:
    try:
        return tuple(sorted(ids))
    except TypeError:
        raise ComplexError(f"{what} ids do not sort together") from None


class SurfaceComplex:
    """Immutable combinatorial closed surface of a given genus.

    The constructor is the one gate for the genus, the label and each edge's
    two ends; ids of any type are kept as given if they sort together."""

    def __init__(
        self,
        genus: int,
        vertices: Iterable[int],
        edges: Mapping[int, tuple[int, int]],
        faces: Mapping[int, Iterable[int]],
        label: str = "",
    ):
        if not isinstance(label, str):
            raise ComplexError("label must be a string")
        self.genus, self.label = _as_int(genus, "genus", ComplexError), label
        for name, value, kind in (("vertices", vertices, Iterable), ("edges", edges, Mapping),
                                  ("faces", faces, Mapping)):
            if not isinstance(value, kind):
                raise ComplexError(f"{name} must be {'a mapping' if kind is Mapping else 'iterable'}")
        try:
            self.vertices = tuple(vertices)
        except TypeError:  # an __iter__ that returns no iterator
            raise ComplexError("vertices must be iterable") from None
        try:
            self.edges = dict(zip(edges, map(tuple, edges.values())))
            self.faces = dict(zip(faces, map(tuple, faces.values())))
        except TypeError:  # name the first edge, else face, that is not a sequence
            for kind, items in (("edge", edges), ("face", faces)):
                for k, v in items.items():
                    try:
                        tuple(v)
                    except TypeError:
                        raise ComplexError(f"{kind} {k} is not a sequence of ids") from None
            raise ComplexError("edges and faces must map hashable ids to sequences of ids") from None
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
        if set(map(len, self.edges.values())) - {2}:
            bad = next(e for e, ends in self.edges.items() if len(ends) != 2)
            raise ComplexError(f"edge {bad} must have exactly two ends")
        vertex_ids, edge_ids = _sorted_ids(self.vertices, "vertex"), _sorted_ids(self.edges, "edge")
        try:
            vpos, bit = dict(zip(vertex_ids, count())), dict(zip(edge_ids, count()))
        except TypeError:
            raise ComplexError("vertex ids must be hashable") from None
        if len(vpos) != len(vertex_ids):
            raise ComplexError("duplicate vertex ids")
        ends = [None] * len(edge_ids)  # dense vertex numbers, by edge bit
        try:  # KeyError: an unknown end; TypeError: one that cannot be hashed
            for e, (u, v) in self.edges.items():
                ends[bit[e]] = vpos[u], vpos[v]
        except (KeyError, TypeError):
            raise ComplexError(f"edge {e} references unknown vertex") from None
        face_ids = _sorted_ids(self.faces, "face")
        first, face_of, edge_of, slot_bit = [0], [], [], []
        for i, f in enumerate(face_ids):
            cyc = self.faces[f]
            if not cyc:
                raise ComplexError(f"face {f} has an empty edge cycle")
            try:  # KeyError: an unknown edge; TypeError: one that cannot be hashed
                for e in cyc:
                    slot_bit.append(bit[e])
            except (KeyError, TypeError):
                raise ComplexError(f"face {f} references unknown edge {e}") from None
            face_of += [i] * len(cyc)
            edge_of += cyc
            first.append(len(edge_of))
        # darts are the face slots in (face id, position) order; an edge's
        # first dart is its first slot, and alpha pairs it with the other
        edge_dart, alpha = [-1] * len(edge_ids), [-1] * len(edge_of)
        for d, b in enumerate(slot_bit):
            a = edge_dart[b]
            if a < 0:
                edge_dart[b] = d
            else:
                alpha[a], alpha[d] = d, a
        # 2E darts, each edge met and each dart paired: exactly two slots per edge
        if len(alpha) != 2 * len(edge_ids) or -1 in edge_dart or -1 in alpha:
            counts = Counter(edge_of)
            bad = next(e for e in edge_ids if counts[e] != 2)
            raise ComplexError(f"edge {bad} borders {counts[bad]} face-slots, expected exactly 2")
        # tail/head: the vertices each slot runs between along its face's walk;
        # an alternating walk (x y x y ...) of four or more slots runs either way
        alternating, tail, head = [], [], []
        for f, lo, hi in zip(face_ids, first, first[1:]):
            for x in ends[slot_bit[lo]]:
                walk = [x]
                for b in slot_bit[lo:hi]:
                    u, v = ends[b]
                    if x != u and x != v:
                        break
                    x ^= u ^ v  # the edge's other end
                    walk.append(x)
                if len(walk) > hi - lo and x == walk[0]:  # every slot met, and closed
                    break
            else:
                raise ComplexError(
                    f"face {f} edge cycle is not a closed edge path "
                    "(consecutive edges must chain through shared vertices)"
                )
            alternating.append(len(walk) > 4 and walk[:-1] == walk[:2] * (len(walk) // 2))
            tail += walk[:-1]
            head += walk[1:]
        # orient: across every non-loop edge, the two slots run opposite ways;
        # flip[i] runs face i against its walk, and each piece, a set of
        # faces that only loops tie to the rest, starts at its lowest face
        flip, pieces = [-1] * len(face_ids), []
        for root in range(len(face_ids)):
            if flip[root] >= 0:
                continue
            flip[root] = 0
            stack = [root]
            pieces.append(stack[:])
            while stack:
                i = stack.pop()
                lo, hi, fi = first[i], first[i + 1], flip[i]
                for x, y, a in zip(tail[lo:hi], head[lo:hi], alpha[lo:hi]):
                    if x == y:
                        continue
                    j, want = face_of[a], fi ^ (x == tail[a])
                    if flip[j] < 0:
                        flip[j] = want
                        stack.append(j)
                        pieces[-1].append(j)
                    elif flip[j] != want:
                        raise ComplexError(
                            f"complex is not orientable: edge {edge_of[a]} cannot be run "
                            "opposite ways by its two face-slots"
                        )
        # rev[i] reverses phi on face i; flip alone reads an alternating face
        # from its other end, so it keeps its stored order
        rev = [f and not alt for f, alt in zip(flip, alternating)]

        def sigma_cycles():
            # the cycles of sigma = phi . alpha are the vertex rotations; each one
            # starts at an edge's first slot where it has one and owns its darts
            phi = []
            for r, lo, hi in zip(rev, first, first[1:]):
                phi += [hi - 1, *range(lo, hi - 1)] if r else [*range(lo + 1, hi), lo]
            rings, owner = [], [-1] * len(alpha)  # -1: not yet in a ring
            for d in [d for d, a in enumerate(alpha) if d < a] + list(range(len(alpha))):
                if owner[d] >= 0:
                    continue
                v = head[d] if flip[face_of[d]] else tail[d]
                ring, x = [], d
                while owner[x] < 0:
                    owner[x] = v
                    ring.append(edge_of[x])
                    x = phi[alpha[x]]
                rings.append((v, tuple(ring)))
            return rings, phi, owner

        def reverse(faces, turn):
            for i in faces:
                flip[i] ^= turn
                rev[i] ^= 1

        # no vertex decides the direction of a piece after the first, nor the
        # order of an alternating face of four or more slots; while a vertex
        # is pinched, reverse each of the first _MAX_REVERSALS in turn and
        # keep it if it joins rotations (each trial walks every dart)
        moves = [(p, 1) for p in pieces[1:]]
        moves += [((i,), 0) for i in compress(range(len(face_ids)), alternating)]
        rings, phi, owner = sigma_cycles()
        for faces, turn in moves[:_MAX_REVERSALS]:
            if len({v for v, _ in rings}) == len(rings):
                break
            reverse(faces, turn)
            trial = sigma_cycles()
            if len(trial[0]) < len(rings):
                rings, phi, owner = trial
            else:
                reverse(faces, turn)
        rotations: dict[int, tuple[int, ...]] = {}
        for v, ring in rings:
            v = vertex_ids[v]
            if v in rotations:
                if len(moves) > _MAX_REVERSALS:
                    raise ComplexError(f"vertex {v} is pinched: it owns more than one rotation after "
                                       f"{_MAX_REVERSALS} of the complex's {len(moves)} moves were tried "
                                       "reversed, the most the reading tries")
                hint = "; the faces no vertex orients were also read reversed" if moves else ""
                raise ComplexError(f"vertex {v} is pinched: it owns more than one rotation{hint}")
            rotations[v] = ring
        self.rotations = rotations
        # pieces meet only along loops: crossing every edge must reach every face
        reached = set(pieces[0]) if pieces else set()
        stack = list(reached) if len(pieces) > 1 else []
        while stack:
            i = stack.pop()
            for j in map(face_of.__getitem__, alpha[first[i]:first[i + 1]]):
                if j not in reached:
                    reached.add(j)
                    stack.append(j)
        if not reached or len(reached) < len(face_ids) or len(rotations) < len(self.vertices):
            raise ComplexError("complex is not connected")
        chi = self.euler_characteristic
        if chi != 2 - 2 * self.genus:
            raise ComplexError(
                f"Euler characteristic {chi} inconsistent with genus {self.genus} "
                f"(expected {2 - 2 * self.genus})"
            )
        face_ends = [(face_of[d], face_of[alpha[d]]) for d in edge_dart]
        self.index = ComplexIndex(edge_ids, bit, vertex_ids, face_ids, (ends, face_ends), alpha, phi,
                                  owner, face_of)
        # a face repeats an edge iff it holds both of that edge's slots
        self.degenerate_faces = tuple(face_ids[f] for f in sorted({f for f, g in face_ends if f == g}))


def dual_complex(c: SurfaceComplex) -> SurfaceComplex:
    """Dual surface: vertices and faces swap roles, edge ids are shared.

    Edge e joins the faces of its first and second slot, and the dual face
    of a vertex is its rotation, so every dual face runs the same way round.
    """
    ix = c.index
    return SurfaceComplex(
        genus=c.genus,
        vertices=ix.face_ids,
        edges={e: (ix.face_ids[f], ix.face_ids[g]) for e, (f, g) in zip(ix.edge_ids, ix.ends[1])},
        faces=c.rotations,
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
            {"id": f, "edge_cycle": list(c.faces[f])} for f in c.index.face_ids
        ],
    }


def _as_ids(values: list, what: str) -> list:
    """One type pass over an id list; the per-id scan runs only to name a bad id."""
    if not set(map(type, values)) <= {int}:
        values = [_as_int(value, what, ComplexError) for value in values]
    return values


def _entries(items: list, kind: str, key: str, not_list: str, member: str) -> dict:
    """{id: list} from the edge or face entries.  One type pass over the whole
    list, as in _as_ids; the entry-by-entry loop runs only when it fails, to
    name the first fault, and accepts every list that the pass accepts."""
    if set(map(type, items)) <= {dict} and set(map(tuple, items)) <= {("id", key), (key, "id")}:
        ids, values = list(map(itemgetter("id"), items)), list(map(itemgetter(key), items))
        if (set(map(type, values)) <= {list} and set(map(type, chain(ids, *values))) <= {int}
                and len(set(ids)) == len(ids)):
            return dict(zip(ids, values))
    out = {}
    for item in items:
        if not isinstance(item, dict) or set(item) != {"id", key}:
            raise ComplexError(f"{kind} entries must have exactly the keys 'id' and '{key}'")
        i = _as_int(item["id"], f"{kind} id", ComplexError)
        if i in out:
            raise ComplexError(f"duplicate {kind} id {i}")
        if not isinstance(item[key], list):
            raise ComplexError(f"{kind} {i} {not_list}")
        out[i] = _as_ids(item[key], member)
    return out


def complex_from_dict(doc: dict) -> SurfaceComplex:
    if not isinstance(doc, dict):
        raise ComplexError("complex document must be a JSON object")
    for word, keys in (("unknown", set(doc) - _TOP_KEYS), ("missing", _TOP_KEYS - set(doc))):
        if keys:
            raise ComplexError(f"{word} key {min(keys)!r} in complex document")
    for key in ("vertices", "edges", "faces"):
        if not isinstance(doc[key], list):
            raise ComplexError(f"{key} must be a list")
    return SurfaceComplex(doc["genus"], *_read_ids(doc), doc["label"])


def _read_ids(doc: dict) -> tuple[list, dict, dict]:
    """A document's vertices, edges and faces; an id that is not an int raises ComplexError."""
    return (_as_ids(doc["vertices"], "vertex id"),
            _entries(doc["edges"], "edge", "ends", "must have exactly two ends", "edge end"),
            _entries(doc["faces"], "face", "edge_cycle", "edge_cycle must be a list", "face edge"))


def save_complex(c: SurfaceComplex, sink: IO[str]) -> None:
    """Writes c as JSON; an id that load_complex refuses raises its ComplexError first."""
    doc = complex_to_dict(c)
    _read_ids(doc)
    json.dump(doc, sink, indent=1, sort_keys=True)
    sink.write("\n")


def load_complex(source: IO[str]) -> SurfaceComplex:
    try:
        doc = json.load(source)
    except (ValueError, RecursionError) as exc:  # ValueError: decoding, syntax, digit limit
        raise ComplexError(f"malformed JSON: {exc}") from exc
    return complex_from_dict(doc)
