"""Brute-force reference implementations used to cross-check the library.

Everything here is written straight from the definitions with python
loops and `math`, no vectorization and no reuse of library code, so the
two sides can only agree by computing the same quantity.
"""

import math


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def norm(u):
    return math.sqrt(dot(u, u))


def cos(u, v):
    return dot(u, v) / (norm(u) * norm(v))


def infonce_item(anchors, targets, i, tau):
    """-log softmax_i of sim(a_i, t_j)/tau over j, via direct exp sums."""
    logits = [cos(anchors[i], t) / tau for t in targets]
    z = sum(math.exp(x) for x in logits)
    return -math.log(math.exp(logits[i]) / z)


def infonce_sum(anchors, targets, tau):
    return sum(infonce_item(anchors, targets, i, tau) for i in range(len(anchors)))


def infonce_item_negs(anchors, targets, negatives, i, tau):
    """Like infonce_item but with extra denominator terms for item i's
    own negatives."""
    logits = [cos(anchors[i], t) / tau for t in targets]
    extra = [cos(anchors[i], h) / tau for h in negatives[i]]
    z = sum(math.exp(x) for x in logits) + sum(math.exp(x) for x in extra)
    return -math.log(math.exp(logits[i]) / z)


def bidirectional_mean(images, texts, tau, hard_negatives=None):
    """mean_i of image-to-text + text-to-image, optionally with per-item
    extra denominator terms on the image-to-text side."""
    n = len(images)
    total = 0.0
    for i in range(n):
        logits_vl = [cos(images[i], t) / tau for t in texts]
        extra = []
        if hard_negatives is not None:
            extra = [cos(images[i], h) / tau for h in hard_negatives[i]]
        z_vl = sum(math.exp(x) for x in logits_vl) + sum(math.exp(x) for x in extra)
        item_vl = -math.log(math.exp(logits_vl[i]) / z_vl)
        item_lv = infonce_item(texts, images, i, tau)
        total += item_vl + item_lv
    return total / n


def hinge_sum(images, texts, neg_images, neg_texts, margin):
    total = 0.0
    for i in range(len(images)):
        pos = cos(images[i], texts[i])
        total += max(0.0, margin - pos + cos(neg_images[i], texts[i]))
        total += max(0.0, margin - pos + cos(images[i], neg_texts[i]))
    return total


def softmax(row):
    top = max(row)
    exps = [math.exp(x - top) for x in row]
    total = sum(exps)
    return [e / total for e in exps]


def cross_entropy_mean(dists, targets):
    items = [-math.log(d[t]) for d, t in zip(dists, targets)]
    return sum(items) / len(items)


def voken_mean(dists, targets, no_voken=-1):
    items = [-math.log(d[t]) for d, t in zip(dists, targets) if t != no_voken]
    return sum(items) / len(items) if items else 0.0


def mmd2_poly2(teacher, student):
    """V-statistic squared MMD with k(x, y) = (x . y)^2 on unit rows."""

    def unit(rows):
        return [[x / norm(r) for x in r] for r in rows]

    t = unit(teacher)
    s = unit(student)

    def kmean(a, b):
        return sum(dot(x, y) ** 2 for x in a for y in b) / (len(a) * len(b))

    return kmean(t, t) + kmean(s, s) - 2.0 * kmean(t, s)


def lexicon_walk_equivalent(path, original, candidate):
    """Exhaustive file-based check: candidate is a symmetric-synonym
    neighbor of original, or reachable along hypernym edges."""
    syn = {}
    parents = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, rel, b = line.split("\t")
            if rel == "syn":
                syn.setdefault(a, set()).add(b)
                syn.setdefault(b, set()).add(a)
            elif rel == "hyper":
                parents.setdefault(a, set()).add(b)
    if candidate in syn.get(original, set()):
        return True
    seen = set()
    frontier = list(parents.get(original, set()))
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(parents.get(node, set()))
    return candidate in seen


def finite_difference_grad(f, x, step=1e-5):
    """Central-difference gradient of a scalar function of a flat list."""
    grad = []
    for i in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[i] += step
        lo[i] -= step
        grad.append((f(hi) - f(lo)) / (2.0 * step))
    return grad
