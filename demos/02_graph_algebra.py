"""The relaxed graph algebra: containment, equivalence, difference, edits.

Run with: python3 demos/02_graph_algebra.py
"""

from amrinfer import (
    conjoin_graphs,
    graph_difference,
    insert_argument,
    parse_penman,
    relaxed_isomorphic,
    relaxed_subset,
    serialize_penman,
    substitute_subgraph,
)

AMR = parse_penman

# Relaxed containment: argument-class edges (:ARGn, :opn) must line up,
# modifier roles like :mod, :time, :manner are ignored on both sides.
rock = AMR("(r / rock)")
sentence = AMR("(m / material :mod (h / hard) :domain (r / rock))")
print("rock in 'rock is a hard material':", relaxed_subset(rock, sentence))

# Modifier roles never have to line up: here the inner graph attaches
# 'slow' via :manner, the outer one via :mod, and containment still holds.
with_manner = AMR("(c / cover-01 :ARG0 (w / water) :ARG1 (r / rock) :manner (s / slow))")
with_mod = AMR("(c / cover-01 :ARG0 (w / water) :ARG1 (r / rock) :mod (s / slow))")
print("mismatched :manner ignored:", relaxed_subset(with_manner, with_mod))

# Equivalence is variable-name agnostic.
a = AMR("(s / store-01 :ARG0 (p / photosynthesis) :ARG1 (e / energy))")
b = AMR("(x1 / store-01 :ARG0 (x2 / photosynthesis) :ARG1 (x3 / energy))")
print("same graph, new letters:", relaxed_isomorphic(a, b))

# Difference: a minimal delta under a maximum-common-subgraph alignment.
before = AMR("(e / energy :domain (e2 / energy :mod (s / solar)))")
after = AMR(
    "(e / energy :domain (e2 / energy :mod (s / solar))"
    " :ARG1-of (c / come-01 :ARG3 (s2 / sun)))"
)
delta = graph_difference(before, after)
print("added concepts:", [c for _, c in delta.added_nodes])
print("removed concepts:", [c for _, c in delta.removed_nodes])

# Edits: substitution splices a subgraph in at a node; insertion attaches
# a new argument; conjunction joins two graphs under a fresh 'and'.
host = AMR("(c / characteristic :ARG1-of (a / acquire-01) :domain (s / scar))")
enriched = substitute_subgraph(host, "s", AMR("(s / scar :location (k / knee))"))
print("substituted:", serialize_penman(enriched))

inserted = insert_argument(before, "e", AMR("(c / come-01 :ARG3 (s / sun))"), ":ARG1-of")
print("inserted:  ", serialize_penman(inserted))

both = conjoin_graphs(a, AMR("(r / release-01 :ARG0 (r2 / respiration))"))
print("conjoined: ", serialize_penman(both))
