"""Parsing and serializing Penman notation.

Run with: python3 demos/01_penman_basics.py
"""

from amrinfer import parse_penman, serialize_penman, PenmanSyntaxError

# A graph is written as a parenthesized instance: variable / concept,
# followed by role-target pairs. Targets are nested instances, references
# back to earlier variables, or constants.
text = """
(c / contain-01
   :ARG0 (f / food)
   :ARG1 (n / nutrient)
   :polarity -)
"""
g = parse_penman(text)
print("root:", g.root)
print("nodes:", {n: c for n, c in g.nodes.items()})
print("edges:")
for e in g.edges:
    print("  ", e.source, e.role, e.target)

# Serialization is canonical: one line, concepts at first occurrence,
# stable edge order. Parsing it back gives the same graph.
print("canonical:", serialize_penman(g))

# Re-entrancy: a variable mentioned twice serializes as a bare reference.
w = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b))")
print("re-entrant:", serialize_penman(w))

# Errors carry character offsets.
try:
    parse_penman("(s / ")
except PenmanSyntaxError as exc:
    print("diagnostic:", exc)
