"""Incremental most-frequent-pair machinery of Re-Pair and of Greedy's
pair rounds.

Maintains, over one working string, the exact greedy left-to-right
non-overlapping occurrence count of every adjacent pair, under batched
pair-to-nonterminal replacements.

Re-Pair builds one engine over its text.  Greedy builds a new one after
each scan whose winner is a pair, over its whole working array: S' and
every rule's right-hand side, each followed by a negative separator.  Each
separator occurs once, so every pair that contains one occurs once and is
never active: no counted pair crosses two segments.

Layout (Larsson & Moffat, "Off-line dictionary-based compression", Proc.
IEEE 88(11), 2000).  The string lives in flat per-position arrays: symbol,
next and previous live position.  Every active pair is one record, its
occurrence count and the head of its occurrence thread; the occurrences are
threaded in position order through per-position next-occurrence,
previous-occurrence and pair-id arrays.  All of it is held in stdlib
``array`` typed arrays, built by one numpy pass over the string.

Only pairs that occur at least twice are active.  Replacing the pair (a, b)
by a fresh symbol X uses up every occurrence of (a, b), and every pair it
creates contains X: so a pair that occurs once never occurs again, and the
new pairs (c, X) and (X, d) are found in two per-replacement dicts keyed by
the neighbour c or d, with no global pair dictionary.

Selection is deterministic: maximum count first, then leftmost first
occurrence.  A lazy max-heap holds (count upper bound, first-position lower
bound) keys.  Counts of existing pairs only fall and their first occurrences
only move right, so an old key stays a valid bound and only new pairs get a
push; the entry at the top is revalidated against the exact count, which
differs from the raw occurrence count only in runs such as ``aaaa``.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import chain

import numpy as np


class PairEngine:
    def __init__(self, symbols):
        total = len(symbols)
        if not total:
            raise ValueError("the string must be nonempty")
        # positions and pair ids (one per pair occurring twice when built,
        # at most one per replaced occurrence after) stay below 2 * total
        self._typecode = "i" if 2 * total < 1 << 31 else "q"
        dt = np.int32 if self._typecode == "i" else np.int64
        self.alive = total

        flat = np.fromiter(symbols, dtype=np.int64, count=total)
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
        self._pid = self._array(pid)
        self._onx = self._array(onx)
        self._opv = self._array(opv)
        del pid, onx, opv

        first = first[active]
        count = size[active]
        head = occ[first]
        self._cnt = self._array(count)
        self._head = self._array(head)
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

    def replace(self, pair, positions, new_symbol):
        """Replace the given disjoint occurrences of pair, in position order,
        with new_symbol."""
        a, b = pair
        sym, nxt, prv = self.sym, self.nxt, self.prv
        pid, onx, opv, cnt, head = self._pid, self._onx, self._opv, self._cnt, self._head
        p = positions[0]
        sel = pid[p]
        if sel == -1 or sym[p] != a or sym[nxt[p]] != b:
            raise AssertionError("stale replacement position")
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
        cnt[sel] = 0
        for at in chain(left.values(), right.values()):
            prev = at[0]
            if len(at) == 1:
                pid[prev] = -1
                continue
            k = len(cnt)
            cnt.append(len(at))
            head.append(prev)
            heapq.heappush(self._heap, (-len(at), prev, k))
            pid[prev] = k
            opv[prev] = -1
            for p in at[1:]:
                onx[prev] = p
                opv[p] = prev
                pid[p] = k
                prev = p
            onx[prev] = -1

    def symbols(self) -> list:
        """The working string."""
        out = []
        sym, nxt = self.sym, self.nxt
        i = 0
        while i != -1:
            out.append(sym[i])
            i = nxt[i]
        return out
