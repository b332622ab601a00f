"""Branch-by-branch enumeration of one cabled crossing at the lane level, kept
as an independent reference for ``cabled.crossing_oracle``.

The K upper lanes (index p) pass over the K under lanes (index l) in the
K^2 micro-crossings (p, l), taken in any given linear order.  Each pass of a
ball over an empty lane branches into fall (weight 1 - q, the ball stops in
that lane) and pass (weight q).  Unlike the cabled word, the order here need
not be realizable by a braid, so arbitrary orders can be checked.
"""

from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q

MicroOrder = list[tuple[int, int]]


def sweep_order(K: int) -> MicroOrder:
    """The cabled word's micro-crossing linearization: upper lanes from the
    side that reaches the under group first (index K-1), each crossing under
    lanes in the order met (index 0 first)."""
    return [(p, l) for p in reversed(range(K)) for l in range(K)]


def reference(
    K: int,
    a: int,
    b: int,
    *,
    upper: tuple[bool, ...] | None = None,
    lower: tuple[bool, ...] | None = None,
    order: MicroOrder | None = None,
) -> dict:
    """The fall distribution {c: weight} of one cabled crossing.

    ``upper``/``lower`` fix which lanes start occupied (default: the first a
    upper and first b under lanes); ``order`` fixes the micro-crossing
    linearization (default: ``sweep_order``).
    """
    if K < 1:
        raise ValueError(f"cable width must be >= 1, got {K}")
    if not 0 <= a <= K or not 0 <= b <= K:
        raise ValueError(f"need 0 <= a, b <= K, got a={a}, b={b}, K={K}")
    if upper is None:
        upper = tuple(p < a for p in range(K))
    if lower is None:
        lower = tuple(l < b for l in range(K))
    if sum(upper) != a or sum(lower) != b or len(upper) != K or len(lower) != K:
        raise ValueError("placement masks must match K, a, b")
    if order is None:
        order = sweep_order(K)
    if sorted(order) != sorted((p, l) for p in range(K) for l in range(K)):
        raise ValueError("order must linearize all K^2 micro-crossings exactly once")

    # Branch states: (upper occupancy, lower occupancy) -> accumulated weight.
    states = {(upper, lower): ONE}
    for p, l in order:
        nxt = {}

        def accumulate(key, w):
            acc = nxt.get(key)
            total = w if acc is None else acc + w
            if total:
                nxt[key] = total
            elif key in nxt:
                del nxt[key]

        for (up, lo), w in states.items():
            if up[p] and not lo[l]:
                fallen_up = up[:p] + (False,) + up[p + 1 :]
                fallen_lo = lo[:l] + (True,) + lo[l + 1 :]
                accumulate((fallen_up, fallen_lo), w * ONE_MINUS_Q)
                accumulate((up, lo), w * Q)
            else:
                accumulate((up, lo), w)
        states = nxt

    dist = {}
    for (up, _lo), w in states.items():
        c = a - sum(up)
        acc = dist.get(c)
        dist[c] = w if acc is None else acc + w
    return {c: w for c, w in sorted(dist.items()) if w}
