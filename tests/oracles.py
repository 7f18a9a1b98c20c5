"""Independent reference computations shared by the test modules."""


def combine_by_enumeration(p_sd: float, p_sr: float, p_cond_by_size) -> float:
    """Total outage by walking all 2^N decode sets literally.

    Relay k decodes with probability 1 - p_sr, independently of the others;
    an empty set leaves the direct link (outage p_sd), and a set of size L
    fails with p_cond_by_size[L-1].  Exponential in N, so only for small N.
    """
    n = len(p_cond_by_size)
    total = 0.0
    for bits in range(1 << n):
        prob = 1.0
        size = 0
        for k in range(n):
            if bits >> k & 1:
                prob *= 1.0 - p_sr
                size += 1
            else:
                prob *= p_sr
        total += prob * (p_sd if size == 0 else p_cond_by_size[size - 1])
    return total
