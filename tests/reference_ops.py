"""Generic one-op nodes that `src` no longer has, shared by the tests.

The bitwise tests build the graphs the fused nodes replaced out of these ops
and compare the fused nodes with them.
"""

from phasecond import tensor as T


def add(a, b):
    """a + b as one node, b equal-shaped or a bias row summed back over rows:
    the generic sum that the reference chains are built from. Each parent gets
    an array of its own, as backward() requires of every rule."""
    return T.make_node(a.data + b.data, (a, b),
                       lambda g: (g, g.copy() if b.data.shape == g.shape else g.sum(axis=0)))


def matmul(a, b):
    """a @ b as one node: the generic product that the reference chains are built from."""
    return T.make_node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def activate(a, act):
    """act applied to a as one node, whose rule reads only the output."""
    out = act.value(a.data)
    return T.make_node(out, (a,), lambda g: (act.rule(g, out),))
