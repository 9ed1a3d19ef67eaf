"""The label rule for cluster members: the bit-for-bit reference of ``_members``.

``dbscan1d._members`` lists a cluster's members from its range alone,
dropping only the non-cores under AS_NOISE, so the scan segmentation
needs no label per point.  This is the rule it replaced, kept verbatim:
the positions of each range, wrapped across the seam and ascending, that
the labels of the public call do not mark as noise.  The tests hold the
range-only form to it.
"""

import numpy as np

from scanseg import NOISE


def reference_members(labels, clusters):
    """Member positions of all clusters in cluster order, and the cluster
    of each: the positions of each range not labelled noise."""
    lo, hi, n = clusters._lo, clusters._hi, labels.shape[0]
    sizes = hi - lo + 1
    starts = sizes.cumsum() - sizes
    cluster = np.arange(sizes.shape[0]).repeat(sizes)
    pos = np.arange(cluster.shape[0]) + (lo - starts).repeat(sizes)
    # only a ring has ranges past n - 1; wrapped, such a run ascends once sorted
    for c in (hi >= n).nonzero()[0].tolist():
        run = pos[starts[c] : starts[c] + sizes[c]]
        run %= n
        run.sort()
    keep = labels[pos] != NOISE
    return pos[keep], cluster[keep]
