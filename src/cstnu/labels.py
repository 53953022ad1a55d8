"""Propositional labels: conjunctions of literals over a finite letter set.

A label is a satisfiable conjunction of positive/negative literals; the
empty conjunction (rendered ``[]``) is always true.  Labels are stored as
sorted literal tuples so equality is structural and labels can key maps.
"""

from itertools import product

__all__ = [
    "Label",
    "EMPTY",
    "INCONSISTENT",
    "conjoin",
    "con",
    "sub",
    "evaluate",
    "enumerate_universe",
    "parse_label",
]


class _Inconsistent:
    """Distinguished result of conjoining clashing labels."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INCONSISTENT"

    def __bool__(self):
        return False


INCONSISTENT = _Inconsistent()


def _check_letter(name):
    if not (isinstance(name, str) and len(name) == 1 and name.isalnum()):
        raise ValueError("letter must be a single alphanumeric symbol: %r" % (name,))
    return name


def _truth(letter, value):
    """`value` as the truth value of `letter`: a `bool`, or the `int` 0
    or 1.  Anything else ("false", None, 2, 1.0) is a `ValueError`."""
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise ValueError("letter %r: a truth value is a bool, 0 or 1, not %r" % (letter, value))


class Label:
    """An internally satisfiable conjunction of literals.

    Literals are (letter, positive) pairs, `positive` a truth value
    (`_truth`).  A letter may not occur with
    both signs; attempting to build such a label raises ValueError, since
    contradictory labels are a caller error everywhere they could appear.
    """

    __slots__ = ("_lits",)

    def __init__(self, literals=()):
        signs = {}
        for letter, positive in literals:
            _check_letter(letter)
            positive = _truth(letter, positive)
            if signs.get(letter, positive) != positive:
                raise ValueError("contradictory label: %s and !%s" % (letter, letter))
            signs[letter] = positive
        self._lits = tuple(sorted(signs.items()))

    @property
    def literals(self):
        return self._lits

    @property
    def letters(self):
        return frozenset(letter for letter, _ in self._lits)

    def sign(self, letter):
        """Sign of `letter` in this label, or None if absent."""
        for name, positive in self._lits:
            if name == letter:
                return positive
        return None

    def is_empty(self):
        return not self._lits

    def without(self, letters):
        """Label obtained by dropping every literal whose letter is in `letters`."""
        return Label((l, p) for l, p in self._lits if l not in letters)

    def __eq__(self, other):
        return isinstance(other, Label) and self._lits == other._lits

    def __hash__(self):
        return hash(self._lits)

    def __len__(self):
        return len(self._lits)

    def __iter__(self):
        return iter(self._lits)

    def __str__(self):
        if not self._lits:
            return "[]"
        return "".join(l if p else "!" + l for l, p in self._lits)

    def __repr__(self):
        return "Label(%s)" % self


EMPTY = Label()


def conjoin(l1, l2):
    """Conjunction of two labels; INCONSISTENT when a letter clashes."""
    signs = dict(l1.literals)
    for letter, positive in l2.literals:
        if signs.get(letter, positive) != positive:
            return INCONSISTENT
        signs[letter] = positive
    return Label(signs.items())


def con(l1, l2):
    """Consistency test: is l1 and l2 jointly satisfiable?"""
    return conjoin(l1, l2) is not INCONSISTENT


def sub(l1, l2):
    """Subsumption test: does l1 entail l2?

    For conjunctions of literals this is literal-set containment.
    """
    return set(l2.literals) <= set(l1.literals)


def evaluate(label, assignment):
    """Truth value of `label` under a letter -> bool assignment."""
    for letter, positive in label.literals:
        if letter not in assignment:
            raise ValueError("letter %r not assigned" % (letter,))
        if bool(assignment[letter]) != positive:
            return False
    return True


def enumerate_universe(letters):
    """All labels over `letters`: each letter positive, negative, or absent.

    Returns 3^|letters| labels in a deterministic order.
    """
    names = sorted(set(letters))
    universe = []
    for choice in product((None, True, False), repeat=len(names)):
        universe.append(
            Label((n, s) for n, s in zip(names, choice) if s is not None)
        )
    return universe


def parse_label(text):
    """Parse the text syntax: "[]" for the empty label, else e.g. "A!B"."""
    if text == "[]":
        return EMPTY
    literals = []
    seen = set()
    i = 0
    while i < len(text):
        positive = True
        if text[i] == "!":
            positive = False
            i += 1
            if i >= len(text):
                raise ValueError("dangling '!' in label %r" % (text,))
        letter = _check_letter(text[i])
        if letter in seen:
            raise ValueError("duplicate letter %r in label %r" % (letter, text))
        seen.add(letter)
        literals.append((letter, positive))
        i += 1
    if not literals:
        raise ValueError("empty label must be written []")
    return Label(literals)
