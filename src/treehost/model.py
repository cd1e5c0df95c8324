"""Tree data model: demand trees, binary host trees, parsing, serialization.

Vertices of a parsed tree get dense integer ids ``0..n-1`` in order of first
appearance in the input; the original tokens are kept as labels, held as
arrays (:class:`Labels`) and made into ``str`` only where one is printed or
looked up.  Host trees
live on the same ids and may additionally contain synthetic *steiner* nodes
with ids ``>= n``, rendered as ``s<id>`` in text form; a host's arrays hold
only the nodes in the tree, so a solved host is n long.

Every tree holds its structure in flat numpy int64 arrays (the input's edge
list, child lists, one ``2 * parent + side`` link per host node) at any size;
the few sequential walks run over local ``tolist()`` copies, which Python
indexes faster than numpy scalars.

Ingest and egress work on whole arrays and whole strings.  The edge-list
parser classifies every character of the text once, which gives each
token's span, tells the numerals apart and checks the line shape.  It sorts
the tokens once, by the ``lex`` key itself (``_lex_order``: numerals by
digit count and digits, other tokens by their code units; no hash, no
fallback), the digit count and first word as packed uint64 keys that all
differ however often a label repeats (``_span_order``), so equal tokens
are adjacent, in input order, and their groups come in ``lex`` order: the
labels are numbered by first appearance and keep their ``lex`` rank
(``Labels.rank``), which ``match_keys`` reads; labels from elsewhere are
ranked by the same routine.  The parser then proves the n - 1 edges
connected: every vertex of degree 1 but vertex 0 hangs from its one
neighbour, and one Euler tour from vertex 0, ranked in numpy
(``_list_ranks``, one int64 state per element), hangs the rest, so the
tour's work follows the inner vertices; ``root_at`` reuses the parent
array and orders the children with one sort of the edges.
One routine walks a host, ``_tour``, also ranked by ``_list_ranks``:
``serialize`` writes it in preorder, ``HostTree.validate`` returns it, and
``check_invariants`` reads ancestry off it.
The host text, the ``solve --json`` ledger, the ``eval`` listings and the
``gen`` edge list are written by one column writer (``write_rows``) from
arrays: node names, numbers and labels' code units, the JSON directly in
the layout of ``json.dumps(indent=2)``.  Rows without a label (the host,
the edge list) are laid out in a zero-padded block, one contiguous write
per constant byte and digit place, then transposed and stripped of the
pad; rows with a label (the ledger and the listings) are laid out by
offset, each row at the sum of the widths before it, every constant,
digit place and label stored once at its place.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np

NONE = -1   # "no node" sentinel: a root's link, a missing child


class TreeHostError(ValueError):
    """Base class for library errors."""


class EdgeListError(TreeHostError):
    """Malformed edge-list input."""


class UnknownVertexError(TreeHostError):
    """A vertex id or label that does not exist."""


class HostTreeError(TreeHostError):
    """Structurally invalid host tree."""


class InvariantViolation(TreeHostError):
    """A structural invariant of the construction failed.

    ``code`` names the invariant, e.g. ``"(i) steiner-degree"``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"invariant {code} violated: {message}")
        self.code = code


class ResourceCapError(TreeHostError):
    """Instance exceeds a hard resource cap (e.g. exhaustive-search size)."""


class ParameterError(TreeHostError):
    """An argument outside its domain (size, seed, degree, size list)."""


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


_RULER_HASH = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio


def _rulers(size: int, head: int) -> np.ndarray:
    """The rulers of ``_list_ranks``, ascending: the head and about one
    element in k, picked by a multiplicative hash of the index so that the
    input's order does not bunch them.  k grows with the size up to 32,
    which balances ``_list_ranks``' two loops."""
    k = min(32, math.isqrt(size // 512) + 1)
    ruler = (np.arange(size, dtype=np.uint64) * _RULER_HASH
             >> np.uint64(58)) < 64 // k
    ruler[head] = True
    return ruler.nonzero()[0]


def _list_ranks(succ: np.ndarray, head: int) -> np.ndarray | None:
    """Position of every element on the list head -> succ[head] -> ... -> -1,
    or None if some element is not on it, for any ``succ`` with values in
    [-1, len(succ)).  A walk that lands on an element an earlier step
    reached gives up, so every walk ends.  Two walks that land on one
    element in the same step go on together; the chain of segments, which
    must end at -1 without passing one twice, then holds only one of them
    and comes up short.

    Ruling-set list ranking: the head and about one element in k are
    rulers (``_rulers``).  All rulers walk their segments at once, one
    numpy step per element of the longest segment (about k ln(size / k)
    steps); one Python pass over the segments then chains them from the
    head's.

    Each element has one int64 state, so a step reads it with one gather:
    -1 unvisited, r for ruler r, ``step << bits | r`` once walker r has
    reached it in that step.  A last slot, which succ's -1 indexes, holds
    the number of rulers and stands for the list's end.
    """
    size = len(succ)
    rulers = _rulers(size, head)
    count = len(rulers)
    bits = count.bit_length()
    state = np.full(size + 1, -1, dtype=np.int64)
    state[rulers] = np.arange(count)
    state[-1] = count
    seg_len = np.zeros(count, dtype=np.int64)
    seg_next = np.zeros(count, dtype=np.int64)  # count: the list's end
    walker, cur, step = np.arange(count), succ[rulers], 1
    while cur.size:
        seen = state[cur]
        stop = seen.view(np.uint64) <= count  # a ruler or the end
        if np.count_nonzero(stop):
            done = walker[stop]
            seg_len[done] = step
            seg_next[done] = seen[stop]
            go = ~stop
            walker, cur, seen = walker[go], cur[go], seen[go]
            if not cur.size:
                break
        if np.count_nonzero(seen >= 0):
            return None
        state[cur] = step << bits | walker
        cur = succ[cur]
        step += 1
    base = [-1] * count
    nxt, lengths = seg_next.tolist(), seg_len.tolist()
    r, pos = int(state[head]), 0
    while r < count and base[r] < 0:
        base[r] = pos
        pos += lengths[r]
        r = nxt[r]
    if pos != size or r < count:  # short, or back into itself
        return None
    # a rank is the base of the walker's segment plus the step; the bases
    # are gathered into ``walker`` itself, so that no other n-sized array
    # is made.  "clip" mode lets take write straight to ``out``; every
    # walker is a valid index, since every element was reached.  Writing
    # over the indices relies on take's loop reading index j before it
    # writes element j, which numpy does but does not document;
    # test_list_ranks_gives_up_off_a_simple_list checks the ranks
    ranks = state[:size]
    walker = ranks & ((1 << bits) - 1)
    np.take(_int64(base), walker, out=walker, mode="clip")
    ranks >>= bits
    ranks += walker
    return ranks


def _tour_parent(arcs: np.ndarray, parent: np.ndarray) -> bool:
    """Hang the edges from vertex 0: write the parent of every vertex on an
    edge into ``parent``, or return False if vertex 0 has no edge or one
    Euler tour from it misses an edge.  ``arcs`` holds edge i both ways as
    arcs 2i and 2i + 1; with no edge there is nothing to hang.

    The arcs are sorted stably by the vertex they leave (``head``).  The
    tour leaves each vertex by the arc after the one it came in by, in that
    order and cyclically; an arc ranked before its twin points away from
    vertex 0.
    """
    size = len(arcs)
    if not size:
        return True
    bits = size.bit_length()
    perm = arcs << bits
    perm |= np.arange(size)
    perm.sort()
    head = perm >> bits
    if head[0]:  # vertex 0 has no edge
        return False
    perm &= (1 << bits) - 1
    twin = np.empty_like(perm)
    twin[perm] = np.arange(size)
    twin = twin[perm ^ 1]  # an involution
    del perm
    # the tour goes on from arc q by the arc after twin[q] among its
    # vertex's arcs, cyclically: after a vertex's last arc comes its first,
    # which follows the last arc of the vertex before it.  Vertex 0 comes
    # first, and the tour ends where it would restart.
    last = np.concatenate(((head[1:] != head[:-1]).nonzero()[0], [size - 1]))
    succ = twin + 1
    succ[twin[last[1:]]] = last[:-1] + 1
    succ[twin[last[0]]] = -1
    ranks = _list_ranks(succ, 0)
    if ranks is None:
        return False
    away = (ranks < ranks[twin]).nonzero()[0]
    parent[head[twin[away]]] = head[away]
    return True


_UTF32 = np.dtype("<u4")


def _code_units(text: str) -> np.ndarray:
    """The text's code points as the narrowest of uint8, uint16 and uint32
    that holds them all.  Their order is Python's ``str`` order."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    units = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                          dtype=_UTF32)
    top = int(units.max())
    return (units.astype(np.uint8) if top < 0x100 else
            units.astype(np.uint16) if top < 0x10000 else units)


def _decode(units: np.ndarray) -> str:
    if units.dtype == np.uint8:
        return str(units.data, "latin-1")
    return units.astype(_UTF32).tobytes().decode("utf-32-le", "surrogatepass")


def _word_view(units: np.ndarray) -> np.ndarray:
    """A big-endian uint64 at every byte offset of the units' big-endian
    bytes: element i reads bytes i..i+7, unaligned, from a copy padded
    with zero bytes.  Words of units in this order compare as the units
    do."""
    size = len(units) * units.itemsize
    padded = np.zeros(size + 8, dtype=np.uint8)
    padded[:size].view(units.dtype.newbyteorder(">"))[:] = units
    return np.ndarray((size + 1,), ">u8", padded, 0, (1,))


# the first j bytes of a big-endian word, for j = 0 .. 8
_WORD_HEAD = np.array([(1 << 64) - (1 << (64 - 8 * j)) for j in range(9)],
                      dtype=np.uint64)


def _span_words(view: np.ndarray, start, nbytes, k) -> np.ndarray:
    """Word k (bytes 8k..8k+7) of each byte span of a ``_word_view``, with
    the bytes past the span's end zeroed; k may be an array.  Every span
    must be longer than 8k bytes, or empty with k = 0, which reads 0."""
    word = view[start + 8 * k].astype(np.uint64)
    word &= _WORD_HEAD[np.clip(nbytes - 8 * k, 0, 8)]
    return word


_ROUND_WORDS = 1 << 20  # the most words one round of _span_order reads


def _span_order(view: np.ndarray, start: np.ndarray, nbytes: np.ndarray,
                first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order of byte spans of a ``_word_view`` by ``first`` (non-negative
    integers), then by their 8-byte words, zero-padded, spans tied in all
    of them in input order; and ``tied``, true where the i-th span in that
    order equals the one before it in ``first`` and in every word.

    All spans are sorted by ``first`` and word 0 in LSD rounds of packed
    keys: with b the bit length of the span count, each round sorts the
    uint64 keys ``chunk << b | position``, where chunk is the next 64 - b
    bits of ``first * 2^64 + word 0`` from the bottom and position is the
    span's place in the order so far.  The keys all differ, so repeated
    labels do not slow the sort, and the position keeps each round stable.
    Then, in rounds, the tied groups that hold a span longer than
    8k bytes are sorted stably by words k .. 2k - 1 (fewer if that would
    read more than ``_ROUND_WORDS`` words), so that a run of equal words
    costs a number of rounds logarithmic in its length."""
    m = len(start)
    bits = m.bit_length()
    b, low = np.uint64(bits), np.uint64((1 << bits) - 1)
    w = _span_words(view, start, nbytes, 0)
    order = None
    top = 64 + int(first.max(initial=0)).bit_length()
    for lo in range(0, top, 64 - bits):
        # bits lo .. of first * 2^64 + w, mod 2^64, in the order so far;
        # the shift by b drops all but the round's 64 - b of them
        if lo == 0:
            key = w << b
        else:
            hi = first[order].astype(np.uint64)
            if lo < 64:
                key = w[order]
                key >>= np.uint64(lo)
                hi <<= np.uint64(64 - lo)
                key |= hi
            else:
                key = hi
                key >>= np.uint64(lo - 64)
            del hi
            key <<= b
        key |= np.arange(m, dtype=np.uint64)
        key.sort()
        key &= low
        key = key.view(np.int64)
        order = key if order is None else order[key]
        del key
    tied = np.zeros(m, dtype=bool)
    w = w[order]
    tied[1:] = w[1:] == w[:-1]
    del w
    key = first[order]
    tied[1:] &= key[1:] == key[:-1]
    del key
    # the sorted positions of the tied groups that hold a span longer than
    # one word: only they have later words to compare
    group = np.cumsum(~tied)
    long = np.zeros(m + 1, dtype=bool)
    long[group[(nbytes > 8)[order]]] = True
    pos = np.flatnonzero(long[group] & (tied | np.append(tied[1:], False)))
    del group, long
    k = 1
    while pos.size:
        head = ~tied[pos]
        group = np.cumsum(head) - 1
        longest = np.maximum.reduceat(nbytes[order[pos]],
                                      np.flatnonzero(head))
        keep = (longest > 8 * k)[group]
        pos, group = pos[keep], group[keep]
        c = max(1, min(k, _ROUND_WORDS // max(len(pos), 1)))
        spans = order[pos]
        rows, cols = np.nonzero(nbytes[spans, None] > 8 * (k + np.arange(c)))
        at = spans[rows]
        keys = np.zeros((c + 1, len(pos)), dtype=np.uint64)
        keys[1 + cols, rows] = _span_words(view, start[at], nbytes[at],
                                           k + cols)
        keys[0] = group
        perm = np.lexsort(keys[::-1])  # by the last key first
        order[pos] = spans[perm]
        keys = keys[1:, perm]
        tied[pos[1:]] &= (keys[:, 1:] == keys[:, :-1]).all(axis=0)
        still = tied[pos]
        still[:-1] |= tied[pos[1:]]
        pos, k = pos[still], k + c
    return order, tied


def _settle(order: np.ndarray, tied: np.ndarray,
            key: np.ndarray | None = None) -> np.ndarray:
    """``order`` with each run of tied entries (``tied[i]``: entry i ties
    with entry i - 1) sorted by ``key`` of the entry if given, then by the
    entry itself; in place."""
    pos = np.flatnonzero(tied | np.append(tied[1:], False))
    if pos.size:
        group = np.cumsum(~tied[pos])
        spans = order[pos]
        keys = (spans, group) if key is None else (spans, key[spans], group)
        order[pos] = spans[np.lexsort(keys)]
    return order


def _leading_zeros(units: np.ndarray, start: np.ndarray,
                   length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of the spans, none of them empty, start with "0", and the
    number of leading "0" units of each; only those spans are read."""
    led = np.flatnonzero(units[start] == ord("0"))
    span = length[led]
    digits = _gather(units, start[led], span)
    at = np.cumsum(span) - span
    other = np.flatnonzero(digits != ord("0"))
    end = np.append(other, len(digits))[np.searchsorted(other, at)]
    return led, np.minimum(end - at, span)


def _numerals(units: np.ndarray, start: np.ndarray,
              length: np.ndarray) -> np.ndarray:
    """Where the span ``units[start:start + length]`` is a numeral: one or
    more ASCII digits.  The spans must be in increasing order."""
    nondigit = np.append((units - np.array(ord("0"), units.dtype)) > 9, True)
    bounds = np.empty(2 * len(start), dtype=np.int64)
    bounds[0::2], bounds[1::2] = start, start + length
    return (length > 0) & ~np.logical_or.reduceat(nondigit, bounds)[0::2]


def _lex_order(units: np.ndarray, start: np.ndarray, length: np.ndarray,
               numeric: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """The spans ``units[start:start + length]`` in the order of the ``lex``
    key, by one ``_span_order``:

    - numerals (``numeric``) first, by their digit count without the
      leading zeros, then by those digits in 8-byte words, exact at any
      length;
    - all other spans by their code units in big-endian words, zero-padded.

    Spans tied in that key come shorter first, so that equal spans are
    adjacent and spans that are not numerals are in Python's ``str`` order
    ("a" and "a\\0", equal in zero-padded words, stay apart); spans of one
    length in a tie keep their input order.  Returns the order, ``tied``
    (the i-th span in the order ties with the one before it in the key)
    and ``same`` (it equals the one before it).
    """
    num = np.flatnonzero(numeric)
    led, lead = _leading_zeros(units, start[num], length[num])
    led = num[led]
    at, nbytes = start.copy(), length.copy()
    at[led] += lead
    nbytes[led] -= lead
    # the digit count, and past every digit count for the other spans;
    # 16 bits where they suffice, to keep this n-sized array small
    top = length[num].max(initial=0) + 1
    first = np.full(len(start), top, np.uint16 if top < 1 << 16 else np.int64)
    first[num] = nbytes[num]
    del num, led, lead
    at *= units.itemsize
    nbytes *= units.itemsize
    order, tied = _span_order(_word_view(units), at, nbytes, first)
    del at, nbytes, first
    same = _same_length(order, tied, length)
    if (same != tied).any():
        # settle by length only the ties that hold more than one length:
        # most ties are a span and its repeats
        run = np.cumsum(~tied)
        mixed = np.zeros(run[-1] + 1, dtype=bool)
        mixed[run[same != tied]] = True
        _settle(order, tied & mixed[run], length)
        same = _same_length(order, tied, length)
    return order, tied, same


def _same_length(order: np.ndarray, tied: np.ndarray,
                 length: np.ndarray) -> np.ndarray:
    """``tied`` where the span also has the length of the one before it."""
    sorted_length = length[order]
    same = tied.copy()
    same[1:] &= sorted_length[1:] == sorted_length[:-1]
    return same


class Labels:
    """Vertex labels as one array of code units (``_code_units``) and
    n + 1 offsets: label v is ``units[off[v]:off[v + 1]]``.  A ``str`` is
    made only for the labels asked for.  ``rank`` is the labels' ``lex``
    rank (int32) where it is known already (the parser's), else None."""

    __slots__ = ("units", "off", "rank")

    def __init__(self, units: np.ndarray, off, rank: np.ndarray | None = None):
        self.units = units
        self.off = _int64(off)
        self.rank = rank

    @classmethod
    def of(cls, labels: "Labels | list[str] | None") -> "Labels | None":
        """``labels`` as Labels: None and Labels pass, a list is encoded."""
        if labels is None or isinstance(labels, Labels):
            return labels
        off = np.zeros(len(labels) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, labels), dtype=np.int64,
                              count=len(labels)), out=off[1:])
        return cls(_code_units("".join(labels)), off)

    def __len__(self) -> int:
        return len(self.off) - 1

    def __getitem__(self, v: int) -> str:
        return _decode(self.units[self.off[v]:self.off[v + 1]])

    def find(self, label: str) -> int:
        """The id of ``label`` (the first, if it repeats), or -1: the
        labels of its length are compared with it in 8-byte words."""
        want = _code_units(label)
        if want.itemsize > self.units.itemsize:
            return -1  # wider than every label's code points
        size = self.units.itemsize
        nbytes = len(want) * size
        view = _word_view(self.units)
        own = _word_view(want.astype(self.units.dtype))
        found = np.flatnonzero(np.diff(self.off) == len(want))
        k = np.arange(-(-nbytes // 8))
        same = (_span_words(view, self.off[found, None] * size, nbytes, k)
                == _span_words(own, 0, nbytes, k))
        found = found[same.all(axis=1)]
        return int(found[0]) if found.size else -1

    def lex_rank(self) -> np.ndarray:
        """Rank of each label in the ``lex`` tiebreak order: labels made of
        ASCII digits first, by integer value, then all other labels in
        Python's ``str`` order; ties keep id order.  ``rank`` if known,
        else ``_lex_order`` of the labels' spans, with numerals of one
        value put in id order (equal labels are in it already)."""
        if self.rank is not None:
            return self.rank
        start, length = self.off[:-1], np.diff(self.off)
        numeric = _numerals(self.units, start, length)
        order, tied, _ = _lex_order(self.units, start, length, numeric)
        _settle(order, tied & numeric[order])  # by id
        rank = np.empty(len(self), dtype=np.int32)
        rank[order] = np.arange(len(self), dtype=np.int32)
        return rank


class UnrootedTree:
    """A tree over dense vertex ids, as its (u, v) edges in input order."""

    __slots__ = ("n", "edges", "labels", "parent0")

    def __init__(self, n: int, edges, labels: Labels | list[str] | None):
        self.n = n
        self.edges = _int64(edges).reshape(-1, 2)
        self.labels = Labels.of(labels)
        # parent of each vertex with the tree hung from vertex 0 (-1 there);
        # None when the edges are not known to connect the vertices
        self.parent0 = None

    @classmethod
    def from_edges(cls, edges: list[tuple[int, int]], n: int | None = None,
                   labels: Labels | list[str] | None = None) -> "UnrootedTree":
        """Build and validate a tree from a list of (u, v) id pairs.

        Raises :class:`EdgeListError` with a distinct diagnostic for
        self-loops, duplicate edges, cycles and disconnected input.
        """
        if n is None:
            n = max((max(u, v) for u, v in edges), default=-1) + 1
            n = max(n, 1)
        if labels is not None and len(labels) != n:
            raise EdgeListError(f"expected {n} labels, got {len(labels)}")

        def name(v: int) -> str:
            return labels[v] if labels is not None else str(v)

        uf = list(range(n))

        def find(a: int) -> int:
            while uf[a] != a:
                uf[a] = uf[uf[a]]
                a = uf[a]
            return a

        seen: set[int] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeListError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise EdgeListError(f"self-loop edge '{name(u)} {name(v)}'")
            key = (u * n + v) if u < v else (v * n + u)
            if key in seen:
                raise EdgeListError(f"duplicate edge '{name(u)} {name(v)}'")
            seen.add(key)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise EdgeListError(
                    f"cycle detected when adding edge '{name(u)} {name(v)}'")
            uf[ru] = rv
        roots = len({find(v) for v in range(n)})
        if roots != 1:
            raise EdgeListError(f"disconnected input: {roots} components")
        return cls.from_tree_edges_unchecked(edges, n, labels)

    @classmethod
    def from_tree_edges_unchecked(cls, edges, n: int,
                                  labels: Labels | list[str] | None = None
                                  ) -> "UnrootedTree":
        """The edges as given, an int64 array without a copy, unvalidated:
        for edges already known to be a tree (validated input, generator
        output).  Also hangs the tree from vertex 0; ``parent0`` is None
        unless the edges are n - 1 edges that connect the vertices, a tree.

        Every vertex of degree 1 but vertex 0 hangs from its one neighbour,
        and one Euler tour (``_tour_parent``) hangs the rest, the inner
        tree, so that the tour's work follows the inner vertices.  n - 1
        edges are a tree just when no edge joins two such leaves, the tour
        takes every other edge and every vertex but 0 gets a parent."""
        n = max(n, 1)
        tree = cls(n, edges, labels)
        src = tree.edges.ravel()  # arcs 2i and 2i + 1: edge i both ways
        leaf = np.bincount(src, minlength=n) == 1
        leaf[0] = False
        hang = leaf[src]  # the arcs that leave a leaf
        out = hang.nonzero()[0]
        up = src[out ^ 1]
        parent = np.full(n, NONE, dtype=np.int64)
        parent[src[out]] = up
        inner = tree.edges[~(hang[0::2] | hang[1::2])].ravel()
        if (len(src) == 2 * (n - 1) and not np.count_nonzero(leaf[up])
                and _tour_parent(inner, parent)
                and np.count_nonzero(parent == NONE) == 1):
            tree.parent0 = parent
        return tree


# What ``str.split`` treats as whitespace, and the part of it at which
# ``str.splitlines`` ends a line ("\r\n" ends one line).
_SPACE_CHARS = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
                "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008"
                "\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
_BREAK_CHARS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT = re.compile(f"#[^{_BREAK_CHARS}]*")
# code point -> 1 for a line break, 2 for a token character, plus 4 for a
# token character that is not an ASCII digit; 0 for other whitespace.
# Code points above U+FFFF are clipped to U+FFFF, a token character.
_CHAR_KIND = np.full(0x10000, 6, dtype=np.uint8)
_CHAR_KIND[ord("0"):ord("9") + 1] = 2
_CHAR_KIND[[ord(c) for c in _SPACE_CHARS]] = 0
_CHAR_KIND[[ord(c) for c in _BREAK_CHARS]] = 1


def _scan_tokens(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
    """The text's code units, and the start and length of every token and
    whether it is a numeral, from one classification of every character;
    raises for the first line that is neither blank nor two tokens.

    The tokens are in that shape just when there is an even number of
    them and a line break lies in every other gap between two: after the
    second token, the fourth, and so on.  One OR over each token and the
    gap after it tells both.  Only a text that fails is split into lines,
    to name the first bad one."""
    codes = _code_units(text)
    kind = _CHAR_KIND[codes if codes.itemsize < 4 else
                      np.minimum(codes, 0xFFFF)]
    token = np.zeros(len(codes) + 2, dtype=bool)
    np.greater_equal(kind, 2, out=token[1:-1])
    bounds = np.flatnonzero(token[1:] != token[:-1])
    del token
    start, stop = bounds[0::2], bounds[1::2]
    seen = np.bitwise_or.reduceat(kind, start)
    broken = (seen[:-1] & 1).view(bool)  # gap j follows token j
    if len(start) % 2 or broken[0::2].any() or not broken[1::2].all():
        ends = kind == 1
        ends[1:] &= (codes[1:] != 10) | (codes[:-1] != 13)  # "\r\n" ends once
        per_line = np.bincount(np.searchsorted(np.flatnonzero(ends), start))
        line = int(np.flatnonzero((per_line != 0) & (per_line != 2))[0])
        raise EdgeListError(f"line {line + 1}: expected two tokens 'u v', "
                            f"got {per_line[line]}")
    return codes, start, stop - start, (seen & 4) == 0


def _intern(codes: np.ndarray, start: np.ndarray, length: np.ndarray,
            numeric: np.ndarray) -> tuple[np.ndarray, Labels]:
    """Number the tokens ``codes[start:start + length]`` by first
    appearance of their text and collect the labels, with their ``lex``
    rank.

    ``_lex_order`` puts equal tokens next to each other, in input order,
    and their groups in ``lex`` order, but for numerals of one value, which
    go by id here.  The labels' units are gathered from the first tokens'
    spans, which are in id order."""
    order, tied, same = _lex_order(codes, start, length, numeric)
    m = len(order)
    heads = np.flatnonzero(~same)
    del same
    first = order[heads]
    is_first = np.zeros(m, dtype=bool)
    is_first[first] = True
    group_id = (np.cumsum(is_first) - 1)[first]
    ids = np.empty(m, dtype=np.int64)
    ids[order] = np.repeat(group_id, np.diff(np.append(heads, m)))
    del order
    by_lex = _settle(group_id, tied[heads] & numeric[first])
    # int32, as the solve keeps it: 2^31 labels take 2^33 characters
    rank = np.empty(len(heads), dtype=np.int32)
    rank[by_lex] = np.arange(len(heads), dtype=np.int32)
    del tied, heads, first, by_lex
    firsts = np.flatnonzero(is_first)  # each label's first token, by id
    off = np.zeros(len(firsts) + 1, dtype=np.int64)
    np.cumsum(length[firsts], out=off[1:])
    return ids, Labels(_gather(codes, start[firsts], length[firsts]), off,
                       rank)


def parse_edge_list(text: str) -> UnrootedTree:
    """Parse whitespace-separated edge pairs into an unrooted tree.

    One edge per line, two tokens; ``#`` starts a comment.  Tokens become
    vertex labels; ids are assigned densely by first appearance.  Empty input
    yields the single-vertex tree (the only tree the format cannot spell).
    Edges that are not a tree go to :meth:`UnrootedTree.from_edges`, which
    words the diagnostic.
    """
    if "#" in text:
        text = _COMMENT.sub("", text)
    codes, start, length, numeric = _scan_tokens(text)
    if not start.size:
        return UnrootedTree.from_tree_edges_unchecked([], 1, ["0"])
    edges, labels = _intern(codes, start, length, numeric)
    del codes, start, length, numeric
    edges = edges.reshape(-1, 2)
    n = len(labels)
    # n - 1 edges that connect n vertices are a tree: no cycle, no self-loop
    # and no duplicate is left to find
    if len(edges) == n - 1:
        tree = UnrootedTree.from_tree_edges_unchecked(edges, n, labels)
        if tree.parent0 is not None:
            return tree
    UnrootedTree.from_edges(edges.tolist(), n=n, labels=labels)
    raise InvariantViolation(
        "edge-checks", "from_edges accepts an edge list the parser refused")


class DemandTree:
    """Rooted tree over dense vertex ids with ordered children (CSR layout).

    ``parent[root] == -1``; the children of v,
    ``child_flat[child_off[v]:child_off[v + 1]]``, keep the stable input
    order, so constructions built from them are reproducible.
    ``labels is None`` means vertex ``v`` is labelled ``str(v)``.
    """

    __slots__ = ("n", "root", "parent", "child_off", "child_flat", "labels")

    def __init__(self, n: int, root: int, parent, child_off, child_flat,
                 labels: Labels | list[str] | None):
        self.n = n
        self.root = root
        self.parent = _int64(parent)
        self.child_off = _int64(child_off)
        self.child_flat = _int64(child_flat)
        self.labels = Labels.of(labels)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def child_counts(self) -> list[int]:
        return np.diff(self.child_off).tolist()

    def leaf_count(self) -> int:
        """Number of childless vertices."""
        return int(np.count_nonzero(np.diff(self.child_off) == 0))


def root_at(tree: UnrootedTree, root: int) -> DemandTree:
    """Orient an unrooted tree away from ``root``.

    Children of each vertex keep the order of their edges in the input,
    which makes repeated runs byte-for-byte reproducible.  The
    orientation is the tree's ``parent0`` with the path from ``root`` to
    vertex 0 reversed.
    """
    n = tree.n
    if not 0 <= root < n:
        raise UnknownVertexError(f"unknown root id {root}")
    if tree.parent0 is None:
        raise EdgeListError("the edges do not connect the vertices")
    par = tree.parent0.copy()
    if root:  # reverse the path from root up to vertex 0, walked in a list
        up, v, path = par.tolist(), root, [root]
        while v:
            v = up[v]
            path.append(v)
        path = np.array(path)
        par[path[1:]] = path[:-1]
        par[root] = NONE

    # each edge's child end, and the children of each vertex in edge order:
    # one sort of the unique keys parent << bits | edge index
    first, second = tree.edges.T
    child = np.where(par[second] == first, second, first)
    key = par[child]
    child_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=n), out=child_off[1:])
    bits = len(key).bit_length()
    key <<= bits
    key |= np.arange(len(key))
    key.sort()
    key &= (1 << bits) - 1
    return DemandTree(n, root, par, child_off, child[key], tree.labels)


class HostTree:
    """Binary tree over the demand vertices plus optional steiner nodes.

    Node ids ``< n_vertices`` are demand vertices; ids ``>= n_vertices`` are
    steiner nodes, and the arrays hold only the nodes in the tree: a played
    match removes its steiner node.  ``link[i] = 2 * parent + side`` is
    node i's one edge up (side 0 left, 1 right; -1 at the root), which
    ``parent`` and ``children()`` read back.  The bracket builder, the
    tournament, ``parse_host`` and the oracle hang a lone child on side 0,
    and ``run_tournament`` refuses a vertex with a side-1 child as already
    played; ``balanced_bst_host`` hangs a lone child on its keys' side.
    ``owner[s - n_vertices]`` records, for a steiner node s, the vertex
    whose bracket created it.
    """

    __slots__ = ("n_vertices", "root", "link", "owner")

    def __init__(self, n_vertices: int, root: int, link, owner):
        self.n_vertices = n_vertices
        self.root = root
        self.link = _int64(link)
        self.owner = _int64(owner)

    def num_nodes(self) -> int:
        return len(self.link)

    def steiner_count(self) -> int:
        return self.num_nodes() - self.n_vertices

    def _links(self) -> np.ndarray:
        """``link``, once every link lies in [-1, 2 * size)."""
        link, top = self.link, 2 * len(self.link)
        if top and (link.min() < NONE or link.max() >= top):
            i = int(((link < NONE) | (link >= top)).argmax())
            raise HostTreeError(f"node {i} has link {link[i]}, outside "
                                f"[-1, {top})")
        return link

    @property
    def parent(self) -> np.ndarray:
        """Each node's parent, -1 at the root."""
        return self._links() >> 1

    def children(self) -> tuple[np.ndarray, np.ndarray]:
        """``left, right``: each node's child on side 0 and on side 1, -1
        where it has none, by one scatter of the links.  Two nodes that
        share a link leave one entry fewer; the first of them is named."""
        link = self._links()
        size = len(link)
        # row side, column parent; a -1 link lands on the pad column
        kids = np.full((2, size + 1), NONE, dtype=np.int64)
        kids[link & 1, link >> 1] = np.arange(size)
        if np.count_nonzero(kids[:, :size] >= 0) < np.count_nonzero(link >= 0):
            uses = np.bincount(link + 1)
            uses[0] = 1  # the roots' -1 links
            i = int((uses[link + 1] > 1).argmax())
            raise HostTreeError(f"node {i} and another are both side "
                                f"{link[i] & 1} of node {link[i] >> 1}")
        return kids[0, :size], kids[1, :size]

    def validate(self) -> tuple[np.ndarray, np.ndarray]:
        """Check that the links make one binary tree from ``root`` and
        return ``_tour(self)``, which names the first node whose link is
        out of range or shared before it ranks the tour."""
        size = len(self.link)
        if not self.n_vertices <= size == self.n_vertices + len(self.owner):
            raise HostTreeError("host arrays of unequal lengths or shorter "
                                "than the demand vertices")
        return _tour(self)


def _tour(host: HostTree) -> tuple[np.ndarray, np.ndarray]:
    """``enter, leave``: the ranks at which one Euler tour from the root,
    left child first, enters and leaves each node, so that u is a proper
    ancestor of v just when enter[u] < enter[v] and leave[v] < leave[u].
    A root that is not a node with link -1, a link out of range or shared,
    or links that do not make one tree from the root raise
    ``HostTreeError``."""
    m, root = len(host.link), host.root
    if not 0 <= root < m or host.link[root] != NONE:
        raise HostTreeError("bad root")
    left, right = host.children()
    # element e < m enters node e, element m + e leaves it: after entering
    # comes the first child, else the leaving; after leaving a right child
    # comes leaving its parent, and after a left child the right child if
    # any, else leaving the parent; after leaving the root, the end
    succ = np.full(2 * m, -1, dtype=np.int64)
    succ[:m] = np.where(left >= 0, left, right)
    leaf = np.flatnonzero(succ[:m] < 0)
    succ[leaf] = leaf + m
    kid = np.flatnonzero(right >= 0)
    succ[m + right[kid]] = kid + m
    kid = np.flatnonzero(left >= 0)
    after = right[kid]
    succ[m + left[kid]] = np.where(after >= 0, after, kid + m)
    del leaf, kid, after
    ranks = _list_ranks(succ, int(root))
    if ranks is None:
        raise HostTreeError("host not connected from root")
    return ranks[:m], ranks[m:]


def _preorder(host: HostTree) -> np.ndarray:
    """The host's nodes in preorder, left child first: the order in which
    the Euler tour enters them."""
    enter, _ = _tour(host)
    tour = np.full(2 * len(enter), NONE, dtype=np.int64)
    tour[enter] = np.arange(len(enter))
    return tour[tour >= 0]


def _compact(block: np.ndarray) -> bytes:
    """The nonzero bytes of a (width, rows) uint8 block, row after row: the
    block is transposed once and its zero pad dropped in one pass."""
    return block.T.tobytes().translate(None, b"\0")


def _splice(outer: np.ndarray, outer_len: np.ndarray, inner: np.ndarray,
            inner_len: np.ndarray) -> np.ndarray:
    """The pieces of ``outer`` and ``inner`` taken in turn, outer first and
    last: piece i of each is its next ``outer_len[i]`` or ``inner_len[i]``
    entries (``len(outer_len) == len(inner_len) + 1``)."""
    turns = np.empty(2 * len(inner_len) + 1, dtype=np.int64)
    turns[0::2], turns[1::2] = outer_len, inner_len
    inside = np.repeat(np.arange(len(turns)) % 2 == 1, turns)
    out = np.empty(len(inside), dtype=np.result_type(inner, outer))
    out[inside] = inner
    out[np.logical_not(inside, out=inside)] = outer
    return out


def _spans(start: np.ndarray, length: np.ndarray, bound: int) -> np.ndarray:
    """The indices ``start[i]:start[i] + length[i]`` of every span, one
    span after another, as 32-bit integers where ``bound``, the end of the
    indexed array, allows.  No span may be empty."""
    # +1 within a span, a jump at each span's start
    step = np.ones(int(length.sum()),
                   dtype=np.int32 if bound < 2 ** 31 else np.int64)
    jump = np.diff(start)
    jump -= length[:-1]
    jump += 1
    step[np.cumsum(length[:-1])] = jump
    step[:1] = start[:1]
    return np.cumsum(step, out=step)


def _gather(units: np.ndarray, start: np.ndarray,
            length: np.ndarray) -> np.ndarray:
    """The spans ``units[start:start + length]`` one after another."""
    return units[_spans(start, length, len(units))]


def _label_units(labels: Labels, ids: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The code units of the labels of ``ids`` one after another, and each
    label's length."""
    start = labels.off[ids]
    length = labels.off[ids + 1] - start
    return _gather(labels.units, start, length), length


def _plain(units: np.ndarray) -> np.ndarray:
    """Where the units are ASCII that ``json.dumps`` does not escape."""
    return ((units >= 0x20) & (units <= 0x7E)
            & (units != ord('"')) & (units != ord("\\")))


def _json_escape(units: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """The units as ASCII bytes escaped as ``json.dumps`` escapes text, the
    position of every escaped unit and the bytes its escape adds.  Each
    distinct escaped code point is escaped once, by ``json.dumps``."""
    plain = _plain(units)
    hit = np.flatnonzero(~plain)
    if not hit.size:
        return units.astype(np.uint8, copy=False), hit, hit
    code, which = np.unique(units[hit], return_inverse=True)
    escapes, width = _label_units(Labels.of(
        [json.dumps(chr(c))[1:-1] for c in code.tolist()]), which)
    gaps = np.diff(hit, prepend=-1, append=len(units)) - 1
    return (_splice(units[plain].astype(np.uint8), gaps, escapes, width),
            hit, width - 1)


def _digits(ids, n: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids as unsigned integers of the narrower of 32 and 64 bits that
    holds them, the digit count of each, and where it is a steiner id,
    one at or above ``n``."""
    ids = _int64(ids)
    top = int(ids.max(initial=0))
    value = ids.astype(np.uint32 if top < 2 ** 32 else np.uint64)
    count = np.ones(len(ids), dtype=np.uint8)
    power = 10
    while power <= top:
        count += value >= power
        power *= 10
    return value, count, np.zeros(len(ids), bool) if n is None else ids >= n


# Rows written at a time: the block of a piece and its copies stay a few
# MB, so that each piece reuses the memory the last one freed instead of
# faulting in fresh pages, which costs more than writing them.
_PIECE_ROWS = 1 << 16


def write_rows(*columns, raw: bool = False) -> list[str]:
    """One text row per entry, the concatenation of the columns, in pieces
    of up to ``_PIECE_ROWS`` rows:

    - a ``str`` (ASCII) is written on every row;
    - ``(ids, n)`` writes the ids as node names: the digits, after an "s"
      where ``id >= n`` (a steiner node; ``n=None`` for plain numbers);
    - ``(labels, ids)``, at most one, writes the labels of ``ids`` from
      their code units, escaped as ``json.dumps`` escapes them, or as they
      are with ``raw=True``; a None ``labels`` writes the ids' digits.

    A row with a label takes plain numbers, ``(ids, None)``, beside it.

    Without a label, the columns are laid out one at a time in a
    (width, rows) block, each constant byte and digit place one contiguous
    write, with zero bytes as the pad of shorter names, which ``_compact``
    drops.  With one, ``_labelled_rows`` stores every part at its offset.
    No label is padded, so the memory stays proportional to the output.
    """
    label, fixed = None, []
    for col in columns:
        if isinstance(col, str):
            fixed.append(col)
        elif isinstance(col[0], Labels):
            label = col[0], _int64(col[1]), len(fixed)
        else:  # node names, or the ids of unlabelled vertices
            ids, n = (col[1], None) if col[0] is None else col
            fixed.append(_digits(ids, n))
    size = len(label[1]) if label else next(
        len(col[0]) for col in fixed if not isinstance(col, str))
    return [_row_piece(fixed, label, slice(lo, min(lo + _PIECE_ROWS, size)),
                       raw) for lo in range(0, size, _PIECE_ROWS)]


def _row_piece(fixed: list, label: tuple | None, rows: slice,
               raw: bool) -> str:
    """The ``rows`` of ``write_rows``."""
    fixed = [col if isinstance(col, str) else tuple(a[rows] for a in col)
             for col in fixed]
    if label is not None:
        return _labelled_rows(fixed, label, rows, raw)
    size = rows.stop - rows.start
    block = np.zeros((sum(len(col) if isinstance(col, str) else
                          int(col[1].max(initial=0)) + bool(col[2].any())
                          for col in fixed), size), dtype=np.uint8)
    j = 0
    for col in fixed:
        if isinstance(col, str):
            for byte in col.encode("ascii"):
                block[j] = byte
                j += 1
            continue
        value, count, steiner = col
        if steiner.any():
            np.multiply(steiner, np.uint8(ord("s")), out=block[j])
            j += 1
        places = int(count.max(initial=0))
        shortest = int(count.min(initial=places))
        for place in range(places):  # from the last digit
            value, digit = np.divmod(value, value.dtype.type(10))
            row = block[j + places - 1 - place]
            np.add(digit, ord("0"), out=row, casting="unsafe")
            if place >= shortest:
                row[count <= place] = 0
        j += places
    return _compact(block).decode("ascii")


def _runs(units: np.ndarray, width: int) -> np.ndarray:
    """Every ``width`` consecutive units as one unsigned integer, at every
    unit offset: an unaligned view that gathers or scatters a short run
    of units as one element."""
    if width == 1:
        return units
    return np.ndarray((max(len(units) - width + 1, 0),),
                      f"u{units.itemsize * width}", units,
                      strides=(units.itemsize,))


def _labelled_rows(fixed: list, label: tuple, rows: slice, raw: bool) -> str:
    """``_row_piece``'s rows with a label column: each row starts at the
    cumulative sum of the row widths before it, and every constant, digit
    place and label is stored at its place.  A constant or a label of up
    to 16 bytes moves as two runs of a word's width, the first and the
    last of it; longer labels, and labels that JSON escapes, are spliced
    unit by unit."""
    labels, ids, at = label
    ids = ids[rows]
    start = labels.off[ids]
    length = labels.off[ids + 1] - start
    itemsize = labels.units.itemsize
    widths = [w // itemsize for w in (1, 2, 4, 8) if w >= itemsize]
    moved = []  # (rows, first run, last run, width) of the short labels
    slow = length > 2 * widths[-1]
    for k, width in enumerate(widths):
        lo = 2 * widths[k - 1] if k else 0  # lengths (lo, 2 width]
        sel = np.flatnonzero((length > lo) & (length <= 2 * width))
        if not sel.size:
            continue
        src = _runs(labels.units, width)
        head = src[start[sel]]
        tail = src[start[sel] + length[sel] - width]
        plain = raw or (_plain(head.view(labels.units.dtype)).all()
                        and _plain(tail.view(labels.units.dtype)).all())
        if not plain:  # the labels that hold a unit to escape
            shape = (len(sel), width)
            keep = (_plain(head.view(labels.units.dtype).reshape(shape))
                    & _plain(tail.view(labels.units.dtype).reshape(shape))
                    ).all(axis=1)
            slow[sel[~keep]] = True
            sel, head, tail = sel[keep], head[keep], tail[keep]
        moved.append((sel, head, tail, width))
    slow = np.flatnonzero(slow)
    units, spliced = _label_units(labels, ids[slow])
    if not raw:
        units, hit, extra = _json_escape(units)
        row = np.searchsorted(np.cumsum(spliced), hit, side="right")
        spliced += np.bincount(row, extra, len(slow)).astype(np.int64)
    length[slow] = spliced

    pos = length.copy()  # the row widths, then each row's next place
    for col in fixed:
        pos += len(col) if isinstance(col, str) else col[1]
    out = np.empty(int(pos.sum()), dtype=labels.units.dtype)
    np.cumsum(pos[:-1], out=pos[1:])
    pos[0] = 0
    for k, col in enumerate([*fixed, None]):
        if k == at:
            for sel, head, tail, width in moved:
                put = _runs(out, width)
                put[pos[sel]] = head
                put[pos[sel] + length[sel] - width] = tail
            out[_spans(pos[slow], spliced, len(out))] = units
            pos += length
        if col is None:
            break
        if isinstance(col, str):
            const = np.frombuffer(col.encode("ascii"), dtype=np.uint8
                                  ).astype(out.dtype)
            if len(const):  # runs of the widest width that fits, the
                # last one flush with the end
                width = max(w for w in widths if w <= len(const))
                put, runs = _runs(out, width), _runs(const, width)
                for j in [*range(0, len(const) - width, width),
                          len(const) - width]:
                    put[pos + j] = runs[j]
            pos += len(const)
            continue
        value, count, _ = col
        pos += count
        for place in range(int(count.max(initial=0))):  # from the last digit
            value, digit = np.divmod(value, value.dtype.type(10))
            digit += ord("0")
            more = count > place
            out[pos[more] - (place + 1)] = digit[more]
    return _decode(out)


def json_block(rows: list[str], open_: str, close: str,
               margin: str = "") -> list[str]:
    """A JSON list or object one level below the top of a document
    indented by ``margin``, laid out as ``json.dumps(indent=2)`` lays it
    out, from the pieces of its rows: each item after the margin and four
    spaces and before ",\\n"."""
    if not rows:
        return [open_ + close]
    return [f"{open_}\n", *rows[:-1], rows[-1][:-2], f"\n{margin}  {close}"]


def serialize(host: HostTree, form: str = "text", *, level: int = 0) -> str:
    """Render a host tree as parent-array text or JSON.

    Text form: one ``node:parent`` line per node in preorder, the root
    pointing at itself.  JSON form: ``{nodes, parent, steiner, root}``, in
    the layout of ``json.dumps(indent=2)``; with ``level`` > 0 as the value
    ``level`` objects deep in such a document: every line after the first
    indented by 2 * ``level`` more spaces, and no final newline.  Both
    round-trip through :func:`parse_host` preserving node ids.
    """
    return "".join(serialize_pieces(host, form, level=level))


def serialize_pieces(host: HostTree, form: str = "text", *,
                     level: int = 0) -> list[str]:
    """:func:`serialize`'s text in pieces, for writing without a join."""
    if form not in ("text", "json"):
        raise ValueError(f"unknown serialization form {form!r}")
    n = host.n_vertices
    order = _preorder(host)
    par = host.link[order]
    par >>= 1
    par[0] = order[0]  # the root comes first and names itself as parent
    if form == "text":
        return write_rows((order, n), ":", (par, n), "\n")
    m = "  " * level
    item = f'{m}    "'
    return [
        f'{{\n{m}  "nodes": ',
        *json_block(write_rows(item, (order, n), '",\n'), "[", "]", m),
        f',\n{m}  "parent": ',
        *json_block(write_rows(item, (order[1:], n), '": "', (par[1:], n),
                               '",\n'), "{", "}", m),
        f',\n{m}  "steiner": ',
        *json_block(write_rows(item, (order[order >= n], n), '",\n'),
                    "[", "]", m),
        f',\n{m}  "root": ', *write_rows('"', (order[:1], n), '"'),
        f"\n{m}}}", "\n" if not level else ""]


def is_ascii_int(s: str) -> bool:
    """True for a non-empty run of ASCII digits: what ``int`` should read.

    ``str.isdigit`` also accepts characters such as '²' (which ``int``
    rejects) and '١' (which ``int`` reads as 1).
    """
    return s.isascii() and s.isdecimal()


def _parse_node_name(tok: str) -> tuple[int, bool]:
    """Return (id, is_steiner) for a serialized node name."""
    if not isinstance(tok, str):
        raise HostTreeError(f"bad node name {tok!r}")
    steiner = tok.startswith("s") and is_ascii_int(tok[1:])
    digits = tok[1:] if steiner or tok.startswith("-") else tok
    if not is_ascii_int(digits):
        raise HostTreeError(f"bad node name {tok!r}")
    # ids below 10^18 fit int64; int() refuses above 4300 digits anyway
    if len(digits.lstrip("0")) > 18:
        raise HostTreeError(f"node id too large: {tok[:20]}... "
                            f"({len(tok)} characters)")
    return int(tok[1:] if steiner else tok), steiner


def parse_host(text: str) -> HostTree:
    """Inverse of :func:`serialize` (detects JSON by a leading '{')."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except RecursionError:
            raise HostTreeError("JSON host nested too deeply") from None
        names, parents = doc.get("nodes"), doc.get("parent")
        steiner = doc.get("steiner", [])
        if not (isinstance(names, list) and isinstance(parents, dict)
                and isinstance(steiner, list)):
            raise HostTreeError("JSON host needs 'nodes' (list), 'parent' "
                                "(object) and optional 'steiner' (list)")
        if not all(isinstance(name, str) for name in names + steiner):
            raise HostTreeError("JSON host node names must be strings")
        pairs = [(name, parents.get(name, name)) for name in names]
        for name in steiner:
            if not name.startswith("s"):
                raise HostTreeError(f"steiner node {name!r} lacks 's' prefix")
    else:
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise HostTreeError(f"line {lineno}: expected 'node:parent'")
            a, b = line.split(":", 1)
            pairs.append((a.strip(), b.strip()))

    ids, pids, id_steiner, pid_steiner = [], [], [], []
    for name, pname in pairs:
        i, st = _parse_node_name(name)
        p, pst = _parse_node_name(pname)
        if i < 0 or p < 0:
            raise HostTreeError(f"negative node id in '{name}:{pname}'")
        ids.append(i)
        pids.append(p)
        id_steiner.append(st)
        pid_steiner.append(pst)
    if not ids:
        raise HostTreeError("empty host tree")
    ids, pids = _int64(ids), _int64(pids)
    id_steiner, pid_steiner = np.array(id_steiner), np.array(pid_steiner)
    n_vertices = 1 + int(max(ids[~id_steiner].max(initial=-1),
                             pids[~pid_steiner].max(initial=-1)))

    # Every listed id gets a slot in id order: a valid host lists the
    # vertices 0..n_vertices-1, which keep their ids, and its steiner ids
    # follow densely, however large they are.
    listed, first, slot = np.unique(ids, return_index=True,
                                    return_inverse=True)
    size = len(listed)
    at = np.minimum(np.searchsorted(listed, pids), size - 1)
    at[listed[at] != pids] = NONE  # not a listed node

    # A bad host is named by its first bad node in listing order, each
    # node's checks in the order the listing is read.
    collides = id_steiner & (ids < n_vertices)
    twice = np.ones(len(ids), dtype=bool)
    twice[first] = False
    roots = np.flatnonzero(pids == ids)
    bad = collides | twice
    bad[roots[1:2]] = True
    if bad.any():
        k = int(bad.argmax())
        if collides[k]:
            raise HostTreeError(f"steiner id s{ids[k]} collides with vertex "
                                f"id range 0..{n_vertices - 1}")
        if twice[k]:
            raise HostTreeError(f"node {ids[k]} listed twice")
        raise HostTreeError("multiple roots")
    if not roots.size:
        raise HostTreeError("no root (node with itself as parent)")
    kids = np.flatnonzero(pids != ids)
    up = at[kids]
    by = np.argsort(up, kind="stable")
    _, start, count = np.unique(up[by], return_index=True, return_counts=True)
    nth = np.empty_like(kids)  # how many earlier kids share the parent
    nth[by] = np.arange(len(kids)) - np.repeat(start, count)
    bad = (up == NONE) | (nth >= 2)
    if bad.any():
        k = int(kids[bad.argmax()])
        if at[k] == NONE:
            raise HostTreeError(f"unknown parent {pids[k]} of node {ids[k]}")
        raise HostTreeError(f"node {pids[k]} has more than two children")
    head = min(size, n_vertices)
    gap = np.flatnonzero(listed[:head] != np.arange(head))
    missing = int(gap[0]) if gap.size else head
    if missing < n_vertices:
        raise HostTreeError(f"missing demand vertex {missing}")

    link = np.full(size, NONE, dtype=np.int64)
    link[slot[kids]] = 2 * up + nth
    # owners are set once the shape is valid
    host = HostTree(n_vertices, int(slot[roots[0]]), link, link[n_vertices:])
    host.validate()
    # Steiner owners: the nearest vertex ancestor (NONE above a steiner
    # root), by pointer doubling; vertices and the sentinel at -1 are fixed.
    owner = np.append(np.where(np.arange(size) < n_vertices,
                               np.arange(size), link >> 1), NONE)
    while (owner[n_vertices:size] >= n_vertices).any():
        owner = owner[owner]
    host.owner = owner[n_vertices:size]
    return host
