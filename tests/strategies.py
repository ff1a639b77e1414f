"""Hypothesis strategies for terms and values over small signatures."""

from __future__ import annotations

from hypothesis import strategies as st

from polytrs.terms import CONSTRUCTOR, FUNCTION, App, Symbol, Var

S0 = Symbol("s0", CONSTRUCTOR, 1)
S1 = Symbol("s1", CONSTRUCTOR, 1)
NIL = Symbol("nil", CONSTRUCTOR, 0)
PAIR = Symbol("pair", CONSTRUCTOR, 2)
F = Symbol("f", FUNCTION, 1)
G = Symbol("g", FUNCTION, 2)


def values(max_size: int = 8, with_pair: bool = False):
    base = st.just(App(NIL))
    ctors = [S0, S1]

    def extend(children):
        unary = st.builds(lambda a, c: App(c, (a,)), children, st.sampled_from(ctors))
        if with_pair:
            return unary | st.builds(lambda a, b: App(PAIR, (a, b)), children, children)
        return unary

    return st.recursive(base, extend, max_leaves=max_size)


def terms(max_size: int = 8):
    base = st.just(App(NIL)) | st.builds(Var, st.sampled_from(["x", "y", "z"]))

    def extend(children):
        return (
            st.builds(lambda a, c: App(c, (a,)), children, st.sampled_from([S0, S1]))
            | st.builds(lambda a: App(F, (a,)), children)
            | st.builds(lambda a, b: App(G, (a, b)), children, children)
        )

    return st.recursive(base, extend, max_leaves=max_size)


def patterns(max_size: int = 6, with_pair: bool = False):
    base = st.just(App(NIL)) | st.builds(Var, st.sampled_from(["x", "y", "z"]))

    def extend(children):
        unary = st.builds(lambda a, c: App(c, (a,)), children, st.sampled_from([S0, S1]))
        if with_pair:
            return unary | st.builds(lambda a, b: App(PAIR, (a, b)), children, children)
        return unary

    return st.recursive(base, extend, max_leaves=max_size)
