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

Layout (after Larsson & Moffat, "Off-line dictionary-based compression",
Proc. IEEE 88(11), 2000).  The string lives in flat per-position arrays:
symbol, next and previous live position, and the record of the pair that
starts there (``pid``, or -1).  Every active pair is one record: its exact
occurrence count and its thread, the segment occ[beg:end] of one shared
occurrence array, in position order.  An entry p is live iff pid[p] is the
thread's record: an occurrence that dies or changes pair only lowers its
record's count and has its pid overwritten, and its entry stays, stale.  A
new pair's thread goes onto the end of occ whole; an append moves a thread
it joins to the end first.  Once occ holds more than twice as many entries
as there are positions, one numpy pass keeps only the live ones.  It is
all held in stdlib ``array`` typed arrays, built by one numpy pass over
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
bound) keys, each packed into one int, ((LIM - count) << 2B) | (first << B)
| record, B the bit width of the typed arrays and LIM = 2^B, which orders
as (-count, first, record).  Replacements only lower counts and move first
occurrences right, so an old key stays a valid bound and only new pairs get
a push; an append pushes a key for every record it raises.  The entry at
the top is revalidated against the exact count, which differs from the raw
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
        # at most one per replaced occurrence after) stay below 4 * total with
        # Greedy's rule segments; occ (<= 2 per position between operations) 4x
        self._typecode = "i" if 16 * total < 1 << 31 else "q"
        self._bits = 31 if self._typecode == "i" else 63
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
        del first
        active = size >= 2
        rec = np.full(len(size), -1, dtype=dt)
        rec[active] = np.arange(int(active.sum()), dtype=dt)
        pid = np.full(total, -1, dtype=dt)
        pid[occ] = rec[np.cumsum(fresh) - 1]
        del rec, fresh
        self.pid = self._array(pid)  # the record of the pair at each position, or -1
        del pid
        occ = occ[np.repeat(active, size)]  # the active groups, one thread each
        count = size[active]
        del size, active
        end = np.cumsum(count)
        beg = end - count
        head = occ[beg]
        self._occ = self._array(occ)
        del occ
        self._cnt, self._beg, self._end = map(self._array, (count, beg, end))
        del beg, end
        self._heap = [self._key(c, h, k)
                      for k, (c, h) in enumerate(zip(count.tolist(), head.tolist()))]
        heapq.heapify(self._heap)

    def _key(self, count, first, record) -> int:
        bits = self._bits
        return ((1 << bits) - count) << 2 * bits | first << bits | record

    def _array(self, values) -> array:
        out = array(self._typecode)
        out.frombytes(memoryview(np.ascontiguousarray(values, dtype=self._typecode)).cast("B"))
        return out

    def select(self):
        """Most frequent pair with count >= 2, ties to leftmost first occurrence.

        Returns (pair, count, first, positions) or None.
        """
        heap = self._heap
        cnt, beg, end, occ, pid = self._cnt, self._beg, self._end, self._occ, self.pid
        sym, nxt = self.sym, self.nxt
        key_of, bits = self._key, self._bits
        lim, mask, top = 1 << bits, (1 << bits) - 1, 2 * bits
        while heap:
            key = heap[0]
            k = key & mask
            c = cnt[k]
            if c < 2:
                heapq.heappop(heap)
                continue
            i = beg[k]
            while pid[occ[i]] != k:  # move the thread's start past stale entries
                i += 1
            beg[k] = i
            h = occ[i]
            ub = lim - (key >> top)
            if c < ub or h != (key >> bits) & mask:
                heapq.heapreplace(heap, key_of(c, h, k))
                continue
            a = sym[h]
            b = sym[nxt[h]]
            if a != b:
                positions = [p for p in occ[i : end[k]] if pid[p] == k]
            else:
                # greedy left-to-right: skip an occurrence that overlaps
                # the last one taken
                positions = []
                last = -1
                for p in occ[i : end[k]]:
                    if pid[p] == k and (last == -1 or nxt[last] != p):
                        positions.append(p)
                        last = p
            count = len(positions)
            if count < 2:
                heapq.heappop(heap)
                continue
            if count == ub:
                return (a, b), count, h, positions
            heapq.heapreplace(heap, key_of(count, h, k))
        return None

    def occurrences(self, record, word) -> list[int]:
        """The left-to-right non-overlapping occurrences of word, whose first
        pair is record's, in position order.  The word holds no separator
        and the string ends with one, so no match runs off the end."""
        sym, nxt, pid = self.sym, self.nxt, self.pid
        rest = word[1:]
        taken = []
        end = -1  # the last position of the last occurrence taken
        for p in self._occ[self._beg[record] : self._end[record]]:
            if p > end and pid[p] == record:
                e = p
                for s in rest:
                    e = nxt[e]
                    if sym[e] != s:
                        break
                else:
                    taken.append(p)
                    end = e
        return taken

    def replace(self, pair, positions, new_symbol):
        """Replace the given disjoint occurrences of pair, in position order,
        with new_symbol, which occurs nowhere but at these positions.

        Every occurrence that dies or changes pair leaves its thread's entry
        stale; when none of the pair's occurrences stay, its record is
        dropped whole.
        """
        a, b = pair
        sym, nxt, prv, pid, cnt = self.sym, self.nxt, self.prv, self.pid, self._cnt
        p = positions[0]
        sel = pid[p]
        if sel == -1 or sym[p] != a or sym[nxt[p]] != b:
            raise AssertionError("stale replacement position")
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
            # the occurrences at q, (b, sym[nr]) or in a run the selected
            # pair's own, and at pl, (sym[pl], a), go; q dies
            k = pid[q]
            if k != -1:
                pid[q] = -1
                cnt[k] -= 1
            sym[p] = new_symbol
            nxt[p] = nr
            if pl != -1:
                k = pid[pl]
                if k != -1:
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
        occ, beg, end = self._occ, self._beg, self._end
        for at in chain(left.values(), right.values()):
            if len(at) == 1:
                pid[at[0]] = -1
                continue
            k = len(cnt)
            cnt.append(len(at))
            beg.append(len(occ))
            occ.extend(at)
            end.append(len(occ))
            heapq.heappush(self._heap, self._key(len(at), at[0], k))
            for p in at:
                pid[p] = k
        self._bound()

    def append(self, symbols, records):
        """Append symbols after the string's last symbol, a separator.

        records[i] is the record whose thread the pair starting at
        symbols[i] joins, at its end, or -1 for a pair that occurs only
        there (one that holds a separator, say).
        """
        nxt, cnt, beg, end, occ = self.nxt, self._cnt, self._beg, self._end, self._occ
        start = len(nxt)
        stop = start + len(symbols)
        nxt[start - 1] = start
        self.sym.extend(symbols)
        nxt.extend(range(start + 1, stop))
        nxt.append(-1)
        self.prv.extend(range(start - 1, stop - 1))
        self.pid.extend(records)
        joins: dict = {}  # record -> its new positions, ascending
        for p, k in enumerate(records, start):
            if k != -1:
                joins.setdefault(k, []).append(p)
        for k, at in joins.items():
            if not cnt[k]:
                beg[k] = len(occ)  # an empty or dropped thread starts afresh
            elif end[k] != len(occ):
                b = len(occ)
                occ.extend(occ[beg[k] : end[k]])
                beg[k] = b
            occ.extend(at)
            end[k] = len(occ)
            cnt[k] += len(at)
            if cnt[k] >= 2:
                heapq.heappush(self._heap, self._key(cnt[k], occ[beg[k]], k))
        self.alive += len(symbols)
        self._bound()

    def _bound(self):
        """Once occ holds over twice as many entries as there are positions,
        keep the live ones in place, in order, a chunk at a time.  An entry
        is live iff its position's record's segment holds it (a moved
        thread's old copy lies outside), so a thread's live entries are one run."""
        if len(self._occ) <= 2 * len(self.nxt):
            return
        tc = self._typecode
        occ, beg, end, pid = (np.frombuffer(a, dtype=tc)
                              for a in (self._occ, self._beg, self._end, self.pid))
        first, stop = np.zeros(len(beg), dtype=tc), np.zeros(len(end), dtype=tc)
        m, last = 0, -1  # live entries kept so far, and the last one's record
        for at in range(0, len(occ), 1 << 16):
            chunk = occ[at : at + (1 << 16)]
            owner = pid[chunk]
            i = np.arange(at, at + len(chunk), dtype=tc)
            live = (owner != -1) & (beg[owner] <= i) & (i < end[owner])
            owner = owner[live]
            occ[m : m + len(owner)] = chunk[live]
            runs = np.flatnonzero(np.diff(owner, prepend=last))
            first[owner[runs]] = m + runs
            runs = np.flatnonzero(np.diff(owner, append=-1))
            stop[owner[runs]] = m + runs + 1
            m += len(owner)
            last = owner[-1] if len(owner) else last
        beg[:], end[:] = first, stop
        del occ, chunk  # release the buffer before it shrinks
        del self._occ[m:]

    def symbols(self) -> np.ndarray:
        """The working string, as an int64 array."""
        nxt = np.frombuffer(self.nxt, dtype=self._typecode)
        prv = np.frombuffer(self.prv, dtype=self._typecode)
        live = np.empty(len(nxt), dtype=bool)
        live[0] = True
        np.equal(nxt[prv[1:]], np.arange(1, len(nxt), dtype=nxt.dtype), out=live[1:])
        return np.frombuffer(self.sym, dtype=np.int64)[live]
