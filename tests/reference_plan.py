"""The light-cone planner in its former multi-pass form: the test oracle.

This is the library's former `CircuitSimulator._plan`, kept only to check
the one-pass planner of `dualunitary.circuit_sim` against.  It filters the
backward cone of the targets, finds each leg's last kept gate, builds the
sweep's steps and predecessor graph in a forward loop, runs Kahn's algorithm
once per light-cone coordinate and formats the budget message on every call.
`plan(sim, ...)` takes the simulator as `self` and returns what `_plan`
returned: the same matrix objects, input and output legs and order.
"""

import heapq

from dualunitary.circuit_sim import _require_budget


def plan(self, steps, legs, targets, batch, t):
    """The sweep that carries an operator on `legs` through `steps`, its
    forward cone, to the `targets`: a list of (matrix, input legs, output
    legs), each applied in turn to the state.  Its largest state is checked
    against the budget here, before any matrix is built.

    It keeps the gates in the backward cone of the targets.  A leg other
    than a target is traced out after its last kept gate, or at once if it
    is an initial leg that none reaches; a target that none reaches opens
    at the end.  The kept gates on one leg follow one another in every
    topological order, so their matrices do not depend on the order.
    Kahn's algorithm gives two orders, putting first the smaller
    depth + position or depth - position (the position of a gate's first
    leg counted from the first initial leg), and the plan keeps the one
    whose largest state has fewer legs, the first on a tie."""
    need, kept = set(targets), []
    for step in reversed(steps):
        if step[1] in need or step[2] in need:
            need.update(step[1:3])
            kept.append(step)
    kept.reverse()
    last = {}
    for k, (_, a, b, _) in enumerate(kept):
        last[a] = last[b] = k
    first = [x for x in legs if x not in last and x not in targets]
    live = set(legs) - set(first)
    n, work, growth = self.n_legs, [], []
    prev, after, blocked = {}, [[] for _ in kept], [0] * len(kept)
    for k, (_, a, b, g) in enumerate(kept):
        opened = tuple(s for s, x in enumerate((a, b)) if x not in live)
        traced = tuple(s for s, x in enumerate((a, b)) if last[x] == k and x not in targets)
        live |= {a, b}
        live -= {(a, b)[s] for s in traced}
        work.append((g, opened, traced, [(a, b)[s] for s in (0, 1) if s not in opened],
                     [(a, b)[s] for s in (0, 1) if s not in traced]))
        growth.append(len(opened) - len(traced))
        for x in (a, b):
            if x in prev:
                after[prev[x]].append(k)
                blocked[k] += 1
            prev[x] = k
    end = [x for x in targets if x not in live]

    def order(sign):
        left = blocked[:]
        key = [d + sign * ((a - legs[0] + n // 2) % n) for d, a, _, _ in kept]
        ready = [(key[k], k) for k in range(len(kept)) if not left[k]]
        heapq.heapify(ready)
        out = []
        while ready:
            k = heapq.heappop(ready)[1]
            out.append(k)
            for m in after[k]:
                left[m] -= 1
                if not left[m]:
                    heapq.heappush(ready, (key[m], m))
        return out

    def largest(order):
        size = peak = len(legs)
        size -= len(first)
        for k in order:
            size += growth[k]
            peak = max(peak, size)
        return max(peak, size + len(end))

    best = min((order(1), order(-1)), key=largest)
    size = largest(best)
    _require_budget(16 * batch * self.q ** (2 * size),
                    f"at t = {t} a sweep carries {size} legs as a q={self.q} state"
                    + (f" batch of {batch}" if batch > 1 else ""))
    return ([(self._trace, [x], []) for x in first]
            + [(self._gate(g, opened, traced), ins, outs)
               for g, opened, traced, ins, outs in (work[k] for k in best)]
            + [(self._open, [], [x]) for x in end])
