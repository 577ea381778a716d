"""Terms over the lookup/update signature and the equational theory of state.

The signature has one lookup symbol ``l`` whose arity is the number of
states (it reads the state and branches) and one unary update symbol ``u_s``
per state ``s`` (it overwrites the state and continues).  The theory is
generated by four equations:

1. ``u_s(u_t(x))            =  u_t(x)``       (a later write wins)
2. ``u_s(l(a_0,...,a_n))    =  u_s(a_s)``     (reading after a write is known)
3. ``l(u_0(x),...,u_n(x))   =  x``            (writing back what was read)
4. ``l(l(a_00,..),..)       =  l(a_00,a_11,..)``  (two reads agree)

Terms are decided by evaluation: a term over ``n`` variables denotes a
function from start states to final (state, variable) pairs, computed by
running it once per start state.  Two terms are equal in the theory exactly
when these runs agree.  :func:`normalize` reads the runs back as the least
term of the class (the global-state normal form of Plotkin and Power), and
:func:`free_classes` reads every class of the free model back alike.  The
algebras of the theory in finite sets are the monad algebras of
:mod:`algebra`, which carry their updates and lookup.

Nodes built here (``_var``, ``_update``, ``_lookup``) skip the constructors'
checks, as valid by construction: the parser has checked its digits and
subscripts, runs carry non-negative pairs, and every lookup gets a tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from itertools import chain, product, starmap, zip_longest
from operator import eq

from .algebra import SearchCeilingExceeded, past_ceiling
from .finset import FinSetError
from .statemonad import StateMonadCtx

#: Most classes one call of :func:`free_classes` may read back, and most
#: start states :func:`_runs` may run a term from.
FREE_CLASS_LIMIT = 10**6


class TermError(ValueError):
    """A malformed term: syntax error, bad arity, or unbound variable.

    ``position`` is the character offset for parse errors, None otherwise.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class Term:
    """Base class for terms; see :class:`Var`, :class:`Update`, :class:`Lookup`."""

    __slots__ = ()


class _Node(Term):
    """The ``==``, ``hash`` and ``repr`` of :class:`Var`, :class:`Update` and
    :class:`Lookup`, with a frozen dataclass's meaning (nodes are equal when
    their classes and fields are; the repr names the fields) but computed
    over an explicit stack, so they take a term of any depth.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(starmap(eq, zip_longest(_preorder(self), _preorder(other))))

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))

    def __repr__(self) -> str:
        out = []
        stack: list[tuple[bool, object]] = [(True, self)]
        while stack:
            is_term, u = stack.pop()
            if not is_term:
                out.append(u)
            elif not isinstance(u, _Node):
                out.append(repr(u))
            elif isinstance(u, Var):
                out.append(f"{type(u).__qualname__}(index={u.index!r})")
            elif isinstance(u, Update):
                out.append(f"{type(u).__qualname__}(state={u.state!r}, body=")
                stack += ((False, ")"), (True, u.body))
            else:
                out.append(f"{type(u).__qualname__}(branches=(")
                stack.append((False, ",))" if len(u.branches) == 1 else "))"))
                for i in range(len(u.branches) - 1, -1, -1):
                    stack.append((True, u.branches[i]))
                    if i:
                        stack.append((False, ", "))
        return "".join(out)  # type: ignore[arg-type]

    def __reduce__(self):
        # pickle and copy rebuild the term from its flat preorder, so they
        # take a term of any depth too
        return _from_preorder, (tuple(_preorder(self)),)


def _preorder(t: object):
    """The nodes of t in preorder, each as its class and its one field that
    is no subterm (a lookup's branch count); a field holding no node is
    ``(None, value)``.  Equal terms give equal sequences, and the sequence
    determines the term, so comparing sequences is comparing terms."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            yield type(u), u.index
        elif isinstance(u, Update):
            yield type(u), u.state
            stack.append(u.body)
        elif isinstance(u, Lookup):
            yield type(u), len(u.branches)
            stack.extend(reversed(u.branches))
        else:
            yield None, u


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Var(_Node):
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise TermError(f"variable index must be non-negative, got {self.index}")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Update(_Node):
    state: int
    body: Term

    def __post_init__(self) -> None:
        if self.state < 0:
            raise TermError(f"update subscript must be non-negative, got {self.state}")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Lookup(_Node):
    branches: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))


_new = object.__new__
_set_index, _set_state = Var.index.__set__, Update.state.__set__
_set_body, _set_branches = Update.body.__set__, Lookup.branches.__set__


def _var(index: int) -> Var:
    t = _new(Var)
    _set_index(t, index)
    return t


def _update(state: int, body: Term) -> Update:
    t = _new(Update)
    _set_state(t, state)
    _set_body(t, body)
    return t


def _lookup(branches: tuple[Term, ...]) -> Lookup:
    t = _new(Lookup)
    _set_branches(t, branches)
    return t


def _from_preorder(nodes) -> Term:
    """The term whose :func:`_preorder` is nodes, built bottom-up on a stack."""
    stack: list = []
    for cls, field in reversed(nodes):
        if cls is None:
            stack.append(field)
            continue
        t = _new(cls)
        if issubclass(cls, Var):
            _set_index(t, field)
        elif issubclass(cls, Update):
            _set_state(t, field)
            _set_body(t, stack.pop())
        else:
            cut = len(stack) - field
            _set_branches(t, tuple(reversed(stack[cut:])))
            del stack[cut:]
        stack.append(t)
    return stack.pop()


def max_var(t: Term) -> int:
    """Largest variable index in the term, or -1 when there is none.  Not
    recursive: an explicit stack holds the subterms still to visit."""
    top = -1
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            top = max(top, u.index)
        elif isinstance(u, Update):
            stack.append(u.body)
        else:
            stack.extend(u.branches)  # type: ignore[attr-defined]
    return top


# ---------------------------------------------------------------------------
# concrete syntax


def format_term(t: Term) -> str:
    """The concrete syntax that :func:`parse_term` reads.  Not recursive: an
    explicit stack holds, in print order reversed, the subterms still to
    print (``True, term``) and the text that closes them (``False, text``)."""
    out = []
    stack: list[tuple[bool, object]] = [(True, t)]
    while stack:
        is_term, u = stack.pop()
        if not is_term:
            out.append(u)
        elif isinstance(u, Var):
            out.append(f"x{u.index}")
        elif isinstance(u, Update):
            out.append(f"u{u.state}(")
            stack += ((False, ")"), (True, u.body))
        elif isinstance(u, Lookup):
            out.append("l(")
            stack.append((False, ")"))
            for i in range(len(u.branches) - 1, -1, -1):
                stack.append((True, u.branches[i]))
                if i:
                    stack.append((False, ","))
        else:
            raise TermError(f"not a term: {u!r}")
    return "".join(out)  # type: ignore[arg-type]


def _expect(text: str, pos: int, ch: str) -> int:
    """The position just past ``ch``, which must come next after whitespace."""
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    if pos >= n or text[pos] != ch:
        raise TermError(f"expected {ch!r}, found {text[pos:pos + 1] or 'end of input'!r}", pos)
    return pos + 1


def parse_term(text: str, s_size: int) -> Term:
    """Parse ``x<k>``, ``u<s>(t)``, and ``l(t0,...,tn)`` with insignificant
    whitespace.  Lookup arity must equal ``s_size`` and update subscripts
    must name existing states; errors carry the offending position.  Not
    recursive: one left-to-right scan keeps the open ``u<s>(`` and ``l(`` on
    an explicit stack, and each finished term closes those it completes."""
    pos, n, frames = 0, len(text), []
    while True:
        c = text[pos] if pos < n else ""
        if c == "x" or c == "u":
            # ASCII digits only, as format_term prints: str.isdigit() also
            # accepts superscripts, which int() refuses
            pos = start = pos + 1
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            if pos == start:
                raise TermError("expected a number", start)
            k = int(text[start:pos])
            if c == "u":
                if k >= s_size:
                    raise TermError(f"unknown update subscript {k} with {s_size} states", start)
                pos = _expect(text, pos, "(")
                frames.append(k)
                continue
            t = _var(k)
        elif c == "l":
            frames.append((pos, []))
            pos = _expect(text, pos + 1, "(")
            continue
        elif c == ")" and s_size == 0 and frames and not frames[-1][1]:
            # l(): with no states every frame is a lookup's, a fresh one empty
            pos += 1
            frames.pop()
            t = _lookup(())
        elif c.isspace():
            pos += 1
            continue
        else:
            message = f"expected a term, found {c!r}" if c else "unexpected end of input"
            raise TermError(message, pos)
        while frames:
            frame = frames[-1]
            if type(frame) is int:
                pos = _expect(text, pos, ")")
                t = _update(frame, t)
            else:
                at, branches = frame
                branches.append(t)
                while pos < n and text[pos].isspace():
                    pos += 1
                if pos < n and text[pos] == ",":
                    pos += 1
                    break
                pos = _expect(text, pos, ")")
                if len(branches) != s_size:
                    raise TermError(f"lookup takes {s_size} branches, got {len(branches)}", at)
                t = _lookup(tuple(branches))
            frames.pop()
        else:
            break
    while pos < n and text[pos].isspace():
        pos += 1
    if pos != n:
        raise TermError(f"trailing input {text[pos:]!r}", pos)
    return t


# ---------------------------------------------------------------------------
# evaluation in the free model


def _runs(t: Term, s_size: int, nvars: int | None = None) -> list[tuple[int, int]]:
    """Run the term from each start state to its final (state, variable) pair.

    Two passes, neither recursive.  The first visits every node with an
    explicit stack and rejects malformed terms: a variable at or past
    ``nvars`` (unchecked when ``nvars`` is None), an update subscript that
    names no state, a lookup without exactly ``s_size`` branches, or an
    object that is not a term.  The second follows one path per start
    state: a variable ends the run, an update overwrites the state, a lookup
    takes the branch the state names.  Past :data:`FREE_CLASS_LIMIT`
    start states, no run is made.
    """
    if s_size > FREE_CLASS_LIMIT:
        raise SearchCeilingExceeded(f"{s_size} start states exceed {FREE_CLASS_LIMIT}")
    stack = [t]
    while stack:
        u = stack.pop()
        if (k := type(u)) is Var:
            if nvars is not None and u.index >= nvars:
                raise TermError(f"unbound variable x{u.index} with nvars={nvars}")
        elif k is Update:
            if u.state >= s_size:
                raise TermError(f"unknown update subscript {u.state} with {s_size} states")
            stack.append(u.body)
        elif k is Lookup:
            if len(u.branches) != s_size:
                raise TermError(f"lookup takes {s_size} branches, got {len(u.branches)}")
            stack.extend(u.branches)
        else:
            stack.append(_exact(u))
    runs = []
    for start in range(s_size):
        state, u = start, t
        while (k := type(u)) is not Var:
            if k is Update:
                state, u = u.state, u.body
            elif k is Lookup:
                u = u.branches[state]
            else:
                u = _exact(u)
        runs.append((state, u.index))
    return runs


def _exact(u: object) -> Term:
    """A subclass instance for :func:`_runs`, rebuilt as its term class."""
    for k in (Var, Update, Lookup):
        if isinstance(u, k):
            return k(*(getattr(u, f.name) for f in fields(k)))
    raise TermError(f"not a term: {u!r}")


def _code(runs: list[tuple[int, int]], nvars: int) -> int:
    """The code in ``T(V)`` whose digit i is run i's pair ``(c, v)``."""
    base = len(runs) * nvars
    return sum((c * nvars + v) * base**i for i, (c, v) in enumerate(runs))


def denote(t: Term, ctx: StateMonadCtx, nvars: int) -> int:
    """Interpret the term in the free model on ``nvars`` variables.

    The result is a code in ``T(V)``: a function sending each starting state
    to the final (state, variable) pair.  Variables read and restore the
    state; updates overwrite it; lookup branches on it.
    """
    return _code(_runs(t, ctx.state.size, nvars), nvars)


def terms_equal(t1: Term, t2: Term, ctx: StateMonadCtx, nvars: int) -> bool:
    """Denotational equality in the free model; sound and complete for the
    four-equation theory."""
    s = ctx.state.size
    return _runs(t1, s, nvars) == _runs(t2, s, nvars)


def normalize(t: Term, s_size: int) -> Term:
    """The least term, by size, that denotes what ``t`` denotes.

    Read back from the runs of :func:`_runs` by :func:`_read_back`:

    - ``x_v`` when every run keeps its start state and ends at ``v``;
    - otherwise ``u_c(x_v)`` when every run ends at the same ``(c, v)``;
    - otherwise ``l(b_0, ..., b_n)``, where ``b_i`` is ``x_v`` when run
      ``i`` ends at ``(i, v)`` and ``u_c(x_v)`` when it ends at ``(c, v)``
      with ``c != i``;
    - with no states, ``l()``: equation 3 with no branches makes every term
      equal to it.

    This form is least.  A term rooted at a variable keeps every start
    state, and one rooted at an update ends every run in the same place, so
    a class of neither shape needs a lookup at the root.  A lookup runs
    branch ``i`` only from state ``i``, so each branch is minimal on its
    own: a branch that keeps its state needs only ``x_v`` (size 1), and one
    that changes it needs an update, so ``u_c(x_v)`` (size 2).  The three
    shapes have sizes 1 < 2 < 1 + |S| (at one state every class is a
    variable's).  Equal terms have equal runs, so they get one normal form.
    """
    return _read_back(_runs(t, s_size))


def _read_back(runs: list[tuple[int, int]]) -> Term:
    """The normal form of the class with these runs; see :func:`normalize`."""
    if not runs:
        return _lookup(())
    c0, v0 = runs[0]
    if all(run == (i, v0) for i, run in enumerate(runs)):
        return _var(v0)
    if all(run == (c0, v0) for run in runs):
        return _update(c0, _var(v0))
    return _lookup(
        tuple(_var(v) if c == i else _update(c, _var(v)) for i, (c, v) in enumerate(runs))
    )


def random_term(rng: random.Random, s_size: int, nvars: int, max_depth: int) -> Term:
    """A reproducible random term, for round-trip and soundness tests."""
    if nvars < 1:
        raise TermError("need at least one variable to build terms")
    if max_depth <= 0 or rng.random() < 0.3:
        return Var(rng.randrange(nvars))
    if s_size >= 1 and rng.random() < 0.5:
        return Update(rng.randrange(s_size), random_term(rng, s_size, nvars, max_depth - 1))
    return Lookup(
        tuple(random_term(rng, s_size, nvars, max_depth - 1) for _ in range(s_size))
    )


# ---------------------------------------------------------------------------
# free-model classes


@dataclass
class FreeClasses:
    """Denotation classes of terms up to a construction depth."""

    count: int
    representatives: dict[int, Term]
    saturated: bool


def free_classes(ctx: StateMonadCtx, nvars: int, depth: int) -> FreeClasses:
    """The classes of terms of depth at most ``depth`` (0 for a variable,
    one more than the deepest argument otherwise), each with its least term.

    Each code of ``T(V) = (S x V)^S`` is split into its runs, one ``(c, v)``
    digit per start state, and read back by :func:`_read_back`.  This is
    what closing the classes under ``u_c`` and ``l`` for ``depth`` rounds
    gives.  The closure is sound, as denotation is compositional, and it
    reaches a class within ``d`` rounds iff the class has a term of depth at
    most ``d``.  By :func:`normalize` a class's least term (by size, then
    text) is its normal form, the only term of that size, and with |S| >= 1
    no term of the class is shallower: a depth-1 term keeps every start
    state or ends every run at one pair, so a class of neither shape has
    depth 2.  So round ``k`` reaches exactly the normal forms of depth
    ``k``, and the closure is saturated once ``depth`` exceeds the deepest:
    0 when ``T(V)`` is empty or |S| = 1 (every class is a variable's), 2
    when |S| >= 2 (``l(u_1(x_0), u_0(x_0), ...)``), and 1 with no states,
    where the one class starts at ``x0`` and round 1 improves it to
    ``l()``.  At depth 1 with |S| >= 2 only the runs that all keep their
    start state or all end at one pair are read.  Past
    :data:`FREE_CLASS_LIMIT` codes to read, or at none, no code is built.
    """
    if depth < 1:
        raise FinSetError(f"depth must be at least 1, got {depth}")
    if nvars < 0:
        raise FinSetError(f"nvars must be non-negative, got {nvars}")
    s = ctx.state.size
    shallow = depth == 1 and s >= 2
    base, extra = (nvars, s * nvars) if shallow else (s * nvars, 0)
    if past_ceiling(base, s, FREE_CLASS_LIMIT) or (count := base**s + extra) > FREE_CLASS_LIMIT:
        shown = f"{base}**{s}" + (f" + {extra}" if extra else "")
        raise SearchCeilingExceeded(f"free model with {shown} classes exceeds {FREE_CLASS_LIMIT}")
    if count == 0:
        return FreeClasses(0, {}, True)
    pairs = [divmod(d, nvars) for d in range(s * nvars)]
    if shallow:
        keep = (list(enumerate(vs)) for vs in product(range(nvars), repeat=s))
        every_run = chain(keep, ([pair] * s for pair in pairs))
    else:
        every_run = product(pairs, repeat=s)
    reps = {_code(runs, nvars): _read_back(runs) for runs in every_run}
    deepest = 2 if s >= 2 and nvars else int(s == 0)
    return FreeClasses(len(reps), dict(sorted(reps.items())), depth > deepest)
