"""Incremental most-frequent-pair machinery of Re-Pair, of Greedy's rounds
between scans and of the IG3 check.

Maintains, over one working string, the exact greedy left-to-right
non-overlapping occurrence count of every adjacent pair, under pair
replacements and appended segments.

Re-Pair builds one engine over its text and replaces pairs.  Greedy builds
one after each scan, over its whole working array (_join): S' and every
rule's right-hand side, each followed by its own negative separator.  Each
separator occurs once, so every pair that contains one occurs once and is
never active: no counted pair crosses two segments.  Greedy replaces a word
as successive pair replacements at the same left positions, finds a word's
occurrences by walking the thread of its first pair (occurrences), and
appends each new rule's segment (append).  grammar.check_irreducible builds
one over a grammar's working array, its ids ranked, and asks select() once:
IG3 holds iff no pair occurs twice.

Layout (Larsson & Moffat, "Off-line dictionary-based compression", Proc.
IEEE 88(11), 2000).  The string lives in flat per-position arrays: symbol,
next and previous live position.  Every active pair is one record, its
occurrence count and the head and tail of its occurrence thread; the
occurrences are threaded in position order through per-position
next-occurrence, previous-occurrence and record (``pid``) arrays.  All of
it is held in stdlib ``array`` typed arrays, built by one numpy pass over
the string, which comes in and goes out as one int64 array.

A replacement keeps the left position of each occurrence and links past
the right one, which dies; no link ever returns to a dead position, and
appended positions follow every old one.  So positions are never
renumbered, position order is string order, and the live positions are 0
and every p that its previous position links to (next[prev[p]] == p):
symbols() reads them with one mask.

Only pairs that occur at least twice are active.  Replacing a pair by a
symbol X that occurs nowhere else creates only pairs that contain X, so a
pair that occurs once never occurs again, and the new pairs (c, X) and
(X, d) are found in two per-replacement dicts keyed by the neighbour c or
d, with no global pair dictionary.  A pair with no new symbol keeps its
position's record for its whole life; an appended segment names, for each
of its pairs, the record whose thread it joins.

Selection is deterministic: maximum count first, then leftmost first
occurrence.  A lazy max-heap holds (count upper bound, first-position lower
bound) keys.  Replacements only lower counts and move first occurrences
right, so an old key stays a valid bound and only new pairs get a push;
an append pushes a key for every record it raises.  The entry at the top
is revalidated against the exact count, which differs from the raw
occurrence count only in runs such as ``aaaa``.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import chain

import numpy as np


def _join(flat: np.ndarray, ends) -> np.ndarray:
    """The working array of ``flat`` cut into segments, segment i ending at
    the ascending offset ends[i]: each segment followed by its own separator
    -(i + 1)."""
    return np.insert(flat, ends, -np.arange(1, len(ends) + 1))


class PairEngine:
    def __init__(self, symbols):
        flat = np.asarray(symbols, dtype=np.int64)
        total = len(flat)
        if not total:
            raise ValueError("the string must be nonempty")
        # positions and record ids (one per pair occurring twice when built,
        # at most one per replaced occurrence after) stay below 4 * total
        # with Greedy's appended rule segments
        self._typecode = "i" if 4 * total < 1 << 31 else "q"
        dt = np.int32 if self._typecode == "i" else np.int64
        self.alive = total

        nxt = np.arange(1, total + 1, dtype=dt)
        nxt[-1] = -1
        prv = np.arange(-1, total - 1, dtype=dt)
        self.sym = array("q", flat.tobytes())
        self.nxt = self._array(nxt)
        self.prv = self._array(prv)
        del prv

        # occurrences sorted by (a, b, position): one group per pair
        occ = np.flatnonzero(nxt != -1).astype(dt)
        del nxt
        a = flat[occ]
        b = flat[occ + 1]
        del flat
        order = np.lexsort((b, a))  # stable, so positions stay ascending
        occ = occ[order]
        a = a[order]
        b = b[order]
        del order
        m = len(occ)
        fresh = np.ones(m, dtype=bool)  # first occurrence of its pair
        fresh[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        del a, b
        first = np.flatnonzero(fresh)
        size = np.diff(np.append(first, m))
        active = size >= 2
        rec = np.full(len(first), -1, dtype=dt)
        rec[active] = np.arange(int(active.sum()), dtype=dt)
        pid = np.full(total, -1, dtype=dt)
        pid[occ] = rec[np.cumsum(fresh) - 1]
        del rec
        # a single occurrence threads to nothing on either side
        onx = np.full(total, -1, dtype=dt)
        onx[occ[:-1]] = np.where(fresh[1:], -1, occ[1:])
        opv = np.full(total, -1, dtype=dt)
        opv[occ[1:]] = np.where(fresh[1:], -1, occ[:-1])
        del fresh
        self.pid = self._array(pid)  # the record of the pair at each position, or -1
        self._onx = self._array(onx)
        self._opv = self._array(opv)
        del pid, onx, opv

        first = first[active]
        count = size[active]
        head = occ[first]
        self._cnt = self._array(count)
        self._head = self._array(head)
        self._tail = self._array(occ[first + count - 1])
        self._heap = list(zip((-count).tolist(), head.tolist(), range(len(count))))
        heapq.heapify(self._heap)

    def _array(self, values) -> array:
        return array(self._typecode, np.ascontiguousarray(values, dtype=self._typecode).tobytes())

    def select(self):
        """Most frequent pair with count >= 2, ties to leftmost first occurrence.

        Returns (pair, count, first, positions) or None.
        """
        heap = self._heap
        cnt, head, onx, sym, nxt = self._cnt, self._head, self._onx, self.sym, self.nxt
        while heap:
            negub, fp, k = heap[0]
            c = cnt[k]
            if c < 2:
                heapq.heappop(heap)
                continue
            h = head[k]
            if c < -negub or h != fp:
                heapq.heapreplace(heap, (-c, h, k))
                continue
            a = sym[h]
            b = sym[nxt[h]]
            positions = []
            p = h
            if a != b:
                while p != -1:
                    positions.append(p)
                    p = onx[p]
            else:
                # greedy left-to-right: skip an occurrence that overlaps
                # the last one taken
                last = -1
                while p != -1:
                    if last == -1 or nxt[last] != p:
                        positions.append(p)
                        last = p
                    p = onx[p]
            count = len(positions)
            if count < 2:
                heapq.heappop(heap)
                continue
            if count == -negub:
                return (a, b), count, h, positions
            heapq.heapreplace(heap, (-count, h, k))
        return None

    def occurrences(self, record, word) -> list[int]:
        """The left-to-right non-overlapping occurrences of word, whose first
        pair is record's, in position order.  The word holds no separator
        and the string ends with one, so no match runs off the end."""
        if not self._cnt[record]:
            return []  # a fully replaced pair's thread is left behind
        sym, nxt, onx = self.sym, self.nxt, self._onx
        rest = word[1:]
        taken = []
        end = -1  # the last position of the last occurrence taken
        p = self._head[record]
        while p != -1:
            if p > end:
                e = p
                for s in rest:
                    e = nxt[e]
                    if sym[e] != s:
                        break
                else:
                    taken.append(p)
                    end = e
            p = onx[p]
        return taken

    def replace(self, pair, positions, new_symbol):
        """Replace the given disjoint occurrences of pair, in position order,
        with new_symbol, which occurs nowhere but at these positions.

        When every occurrence in the pair's thread goes, its record is
        dropped whole; when some stay (those of another word, or of a run
        that overlap the replaced ones), each replaced occurrence is taken
        out of the thread first.
        """
        a, b = pair
        sym, nxt, prv = self.sym, self.nxt, self.prv
        pid, onx, opv = self.pid, self._onx, self._opv
        cnt, head, tail = self._cnt, self._head, self._tail
        p = positions[0]
        sel = pid[p]
        if sel == -1 or sym[p] != a or sym[nxt[p]] != b:
            raise AssertionError("stale replacement position")
        partial = len(positions) < cnt[sel]
        if partial:
            for p in positions:
                if pid[p] != sel:
                    raise AssertionError("stale replacement position")
                o = onx[p]
                v = opv[p]
                if v == -1:
                    head[sel] = o
                else:
                    onx[v] = o
                if o != -1:
                    opv[o] = v
                else:
                    tail[sel] = v
            cnt[sel] -= len(positions)
        left: dict = {}   # c -> positions of (c, new_symbol)
        right: dict = {}  # d -> positions of (new_symbol, d)
        following = positions[1:]
        following.append(-1)
        for p, p_next in zip(positions, following):
            if pid[p] != sel:
                raise AssertionError("stale replacement position")
            q = nxt[p]
            pl = prv[p]
            nr = nxt[q]
            # unlink the occurrences at q, (b, sym[nr]) or in a run the
            # selected pair's own, and at pl, (sym[pl], a); q dies
            k = pid[q]
            if k != -1:
                pid[q] = -1
                o = onx[q]
                v = opv[q]
                if v == -1:
                    head[k] = o
                else:
                    onx[v] = o
                if o != -1:
                    opv[o] = v
                else:
                    tail[k] = v
                cnt[k] -= 1
            sym[p] = new_symbol
            nxt[p] = nr
            if pl != -1:
                k = pid[pl]
                if k != -1:
                    o = onx[pl]
                    v = opv[pl]
                    if v == -1:
                        head[k] = o
                    else:
                        onx[v] = o
                    if o != -1:
                        opv[o] = v
                    else:
                        tail[k] = v
                    cnt[k] -= 1
                c = sym[pl]
                at = left.get(c)
                if at is None:
                    left[c] = [pl]
                else:
                    at.append(pl)
            if nr != -1:
                prv[nr] = p
            if nr == -1 or nr == p_next:
                # (new_symbol, a) at p would become (new_symbol, new_symbol)
                # when the next occurrence is replaced
                pid[p] = -1
            else:
                d = sym[nr]
                at = right.get(d)
                if at is None:
                    right[d] = [p]
                else:
                    at.append(p)
        self.alive -= len(positions)
        if not partial:
            cnt[sel] = 0
        for at in chain(left.values(), right.values()):
            prev = at[0]
            if len(at) == 1:
                pid[prev] = -1
                continue
            k = len(cnt)
            cnt.append(len(at))
            head.append(prev)
            tail.append(at[-1])
            heapq.heappush(self._heap, (-len(at), prev, k))
            pid[prev] = k
            opv[prev] = -1
            for p in at[1:]:
                onx[prev] = p
                opv[p] = prev
                pid[p] = k
                prev = p
            onx[prev] = -1

    def append(self, symbols, records):
        """Append symbols after the string's last symbol, a separator.

        records[i] is the record whose thread the pair starting at
        symbols[i] joins, at its end, or -1 for a pair that occurs only
        there (one that holds a separator, say).
        """
        nxt, cnt, head, tail, onx, opv = self.nxt, self._cnt, self._head, self._tail, self._onx, self._opv
        start = len(nxt)
        end = start + len(symbols)
        nxt[start - 1] = start
        self.sym.extend(symbols)
        nxt.extend(range(start + 1, end))
        nxt.append(-1)
        self.prv.extend(range(start - 1, end - 1))
        self.pid.extend(records)
        onx.extend([-1] * len(symbols))
        opv.extend([-1] * len(symbols))
        for p, k in enumerate(records, start):
            if k == -1:
                continue
            if cnt[k]:
                onx[tail[k]] = p
                opv[p] = tail[k]
            else:
                head[k] = p  # an empty or dropped thread starts afresh
            tail[k] = p
            cnt[k] += 1
        for k in dict.fromkeys(records):
            if k != -1 and cnt[k] >= 2:
                heapq.heappush(self._heap, (-cnt[k], head[k], k))
        self.alive += len(symbols)

    def symbols(self) -> np.ndarray:
        """The working string, as an int64 array."""
        nxt = np.frombuffer(self.nxt, dtype=self._typecode)
        prv = np.frombuffer(self.prv, dtype=self._typecode)
        live = np.empty(len(nxt), dtype=bool)
        live[0] = True
        np.equal(nxt[prv[1:]], np.arange(1, len(nxt), dtype=nxt.dtype), out=live[1:])
        return np.frombuffer(self.sym, dtype=np.int64)[live]
