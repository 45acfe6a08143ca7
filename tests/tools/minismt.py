#!/usr/bin/env python3
"""Reference SMT-LIB 2 solver for the test suite.

Reads a QF_LIA/QF_LRA script on stdin (or from a file argument), answers
(check-sat) and (get-model). Each command runs as soon as it is read and each
answer is flushed, so one process serves a whole interactive session.
Decides the propositional abstraction with a small DPLL loop and checks each
complete assignment against the theory: rational Fourier-Motzkin for
infeasibility, midpoint back-substitution for a real witness, and a pruned
integer search inside [-512, 512] for an integer witness. Intentionally
independent of the package under test; exact within its search window,
which covers every script the tests generate.
"""

import re
import sys
from fractions import Fraction

WINDOW = 512


def tokenize(text):
    text = re.sub(r";[^\n]*", "", text)
    return re.findall(r"\(|\)|[^\s()]+", text)


def read_forms(lines):
    """Each top-level form of the text, as soon as its last line is read."""
    stack = [[]]
    for line in lines:
        for tok in tokenize(line):
            if tok == "(":
                stack.append([])
            elif tok == ")":
                if len(stack) == 1:
                    raise ValueError("unbalanced parentheses")
                done = stack.pop()
                stack[-1].append(done)
            else:
                stack[-1].append(tok)
            if len(stack) == 1:
                yield stack[0].pop()
    if len(stack) != 1:
        raise ValueError("unbalanced parentheses")


RELS = {"<", "<=", ">", ">=", "="}


class Script:
    def __init__(self):
        self.logic = "QF_LIA"
        self.sorts = {}  # symbol -> "Bool" | "Int" | "Real"
        self.clauses = []  # lists of (prop_id, polarity)
        self.theory_atoms = {}  # key -> prop_id
        self.theory_defs = {}  # prop_id -> (coeffs dict, rel, const)
        self.counter = 0

    # --- terms ---------------------------------------------------------

    def term(self, node):
        """Linear term -> (coeffs, constant)."""
        if isinstance(node, str):
            if re.fullmatch(r"\d+(\.\d+)?", node):
                return {}, Fraction(node)
            if node in self.sorts and self.sorts[node] != "Bool":
                return {node: Fraction(1)}, Fraction(0)
            raise ValueError(f"unknown term symbol {node!r}")
        op, args = node[0], node[1:]
        if op == "+":
            coeffs, const = {}, Fraction(0)
            for arg in args:
                c2, k2 = self.term(arg)
                const += k2
                for v, c in c2.items():
                    coeffs[v] = coeffs.get(v, Fraction(0)) + c
            return coeffs, const
        if op == "-":
            head, hk = self.term(args[0])
            if len(args) == 1:
                return {v: -c for v, c in head.items()}, -hk
            for arg in args[1:]:
                c2, k2 = self.term(arg)
                hk -= k2
                for v, c in c2.items():
                    head[v] = head.get(v, Fraction(0)) - c
            return head, hk
        if op == "*":
            coeffs, const = {}, Fraction(1)
            pending = None
            for arg in args:
                c2, k2 = self.term(arg)
                if c2:
                    if pending is not None:
                        raise ValueError("nonlinear product")
                    pending = c2
                else:
                    const *= k2
            if pending is None:
                return {}, const
            return {v: c * const for v, c in pending.items()}, Fraction(0)
        if op == "/":
            coeffs, const = self.term(args[0])
            for arg in args[1:]:
                c2, k2 = self.term(arg)
                if c2 or k2 == 0:
                    raise ValueError("nonlinear division")
                const /= k2
                coeffs = {v: c / k2 for v, c in coeffs.items()}
            return coeffs, const
        raise ValueError(f"unknown term operator {op!r}")

    def theory_prop(self, node):
        op = node[0]
        lc, lk = self.term(node[1])
        rc, rk = self.term(node[2])
        coeffs = dict(lc)
        for v, c in rc.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) - c
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        const = rk - lk
        key = (op, tuple(sorted(coeffs.items())), const)
        if key not in self.theory_atoms:
            self.counter += 1
            prop = f"t#{self.counter}"
            self.theory_atoms[key] = prop
            self.theory_defs[prop] = (coeffs, op, const)
        return self.theory_atoms[key]

    # --- assertions ------------------------------------------------------

    def is_theory(self, node):
        return (
            isinstance(node, list)
            and node
            and node[0] in RELS
            and len(node) == 3
            and not self.is_boolish(node[1])
        )

    def is_boolish(self, node):
        if isinstance(node, str):
            return node in ("true", "false") or self.sorts.get(node) == "Bool"
        return isinstance(node, list) and node and node[0] in ("not", "and", "or", "=", "<", "<=", ">", ">=")

    def literal(self, node, polarity=True):
        if isinstance(node, str):
            if node == "true":
                return ("const", polarity)
            if node == "false":
                return ("const", not polarity)
            if self.sorts.get(node) == "Bool":
                return (node, polarity)
            raise ValueError(f"unknown symbol {node!r}")
        if node[0] == "not":
            return self.literal(node[1], not polarity)
        if self.is_theory(node):
            return (self.theory_prop(node), polarity)
        raise ValueError(f"not a literal: {node!r}")

    def add_assert(self, node):
        if node == "true":
            return
        if node == "false":
            self.clauses.append([])
            return
        if isinstance(node, list) and node and node[0] == "and":
            for arg in node[1:]:
                self.add_assert(arg)
            return
        if isinstance(node, list) and node and node[0] == "or":
            clause = []
            for arg in node[1:]:
                lit = self.literal(arg)
                if lit[0] == "const":
                    if lit[1]:
                        return  # clause satisfied
                    continue
                clause.append(lit)
            self.clauses.append(clause)
            return
        if isinstance(node, list) and node and node[0] == "not":
            inner = node[1]
            if isinstance(inner, list) and inner and inner[0] == "and":
                clause = []
                for arg in inner[1:]:
                    prop, pol = self.literal(arg)
                    if prop == "const":
                        if not pol:
                            return
                        continue
                    clause.append((prop, not pol))
                self.clauses.append(clause)
                return
            self.clauses.append([self.literal(node)])
            return
        if (
            isinstance(node, list)
            and node
            and node[0] == "="
            and (self.is_boolish(node[1]) or self.is_boolish(node[2]))
        ):
            a = self.literal(node[1])
            b = self.literal(node[2])
            self.clauses.append([(a[0], not a[1]), b])
            self.clauses.append([a, (b[0], not b[1])])
            return
        self.clauses.append([self.literal(node)])

    # --- solving ---------------------------------------------------------

    def propositions(self):
        props = set()
        for clause in self.clauses:
            props.update(p for p, _ in clause)
        props.update(self.theory_defs)
        return sorted(props)

    def solve(self):
        props = self.propositions()
        memo = {}

        def theory_ok(assign):
            key = frozenset(
                (p, assign[p]) for p in self.theory_defs if p in assign
            )
            if key not in memo:
                memo[key] = self.theory_witness(assign)
            return memo[key]

        def dpll(assign):
            # unit propagation
            assign = dict(assign)
            while True:
                unit = None
                for clause in self.clauses:
                    undecided = []
                    satisfied = False
                    for prop, pol in clause:
                        if prop in assign:
                            if assign[prop] == pol:
                                satisfied = True
                                break
                        else:
                            undecided.append((prop, pol))
                    if satisfied:
                        continue
                    if not undecided:
                        return None  # conflict
                    if len(undecided) == 1:
                        unit = undecided[0]
                        break
                if unit is None:
                    break
                assign[unit[0]] = unit[1]
            # early theory pruning: the selected constraints only grow along
            # a branch, so a partial conflict already kills the subtree
            witness = theory_ok(assign)
            if witness is None:
                return None
            free = [p for p in props if p not in assign]
            if not free:
                return (assign, witness)
            prop = free[0]
            for value in (True, False):
                result = dpll({**assign, prop: value})
                if result is not None:
                    return result
            return None

        return dpll({})

    # --- theory ----------------------------------------------------------

    def theory_witness(self, assign):
        """Witness valuation for the constraints the assignment selects, or
        None. Empty dict means trivially satisfiable."""
        constraints = []
        for prop, (coeffs, op, const) in self.theory_defs.items():
            if prop not in assign:
                continue
            if assign[prop]:
                constraints.append((coeffs, op, const))
            else:
                flipped = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!="}[op]
                constraints.append((coeffs, flipped, const))
        return solve_constraints(constraints, self.logic == "QF_LIA")


def normalize(constraints):
    """To <=, <, = rows of the form (coeffs, strictness flag or 'eq', k)."""
    rows = []
    for coeffs, op, const in constraints:
        if op in ("<", "<="):
            rows.append((dict(coeffs), op == "<", const))
        elif op in (">", ">="):
            rows.append(({v: -c for v, c in coeffs.items()}, op == ">", -const))
        elif op == "=":
            rows.append((dict(coeffs), False, const))
            rows.append(({v: -c for v, c in coeffs.items()}, False, -const))
        else:
            raise ValueError(op)
    return rows


def fm_stages(rows, variables):
    """Fourier-Motzkin elimination; returns per-variable stages, or None if
    the system is rationally infeasible."""
    stages = []
    current = rows
    for var in variables:
        stages.append((var, current))
        keep, lowers, uppers = [], [], []
        for coeffs, strict, k in current:
            c = coeffs.get(var, Fraction(0))
            if c == 0:
                keep.append((coeffs, strict, k))
            else:
                unit = {v: cc / abs(c) for v, cc in coeffs.items() if v != var}
                if c > 0:
                    uppers.append((unit, strict, k / c))
                else:
                    lowers.append((unit, strict, k / -c))
        for lc, ls, lk in lowers:
            for uc, us, uk in uppers:
                combined = dict(uc)
                for v, cc in lc.items():
                    combined[v] = combined.get(v, Fraction(0)) + cc
                combined = {v: cc for v, cc in combined.items() if cc != 0}
                keep.append((combined, ls or us, lk + uk))
        current = keep
    for coeffs, strict, k in current:
        if coeffs:
            raise AssertionError("unexpected leftover variables")
        if (0 > k) or (strict and 0 == k):
            return None
    return stages


def var_interval(rows, var, partial):
    """Bounds for var from rows whose other variables are all assigned."""
    lo, lo_strict, hi, hi_strict = None, False, None, False
    for coeffs, strict, k in rows:
        c = coeffs.get(var, Fraction(0))
        if c == 0:
            continue
        rest = Fraction(0)
        ready = True
        for v, cc in coeffs.items():
            if v == var:
                continue
            if v in partial:
                rest += cc * partial[v]
            else:
                ready = False
                break
        if not ready:
            continue
        bound = (k - rest) / c
        if c > 0:
            if hi is None or bound < hi or (bound == hi and strict):
                hi, hi_strict = bound, strict
        else:
            if lo is None or bound > lo or (bound == lo and strict):
                lo, lo_strict = bound, strict
    return lo, lo_strict, hi, hi_strict


def int_candidates(lo, lo_strict, hi, hi_strict):
    import math

    low = -WINDOW if lo is None else max(-WINDOW, math.floor(lo) + (1 if lo_strict or lo != math.floor(lo) else 0))
    high = WINDOW if hi is None else min(WINDOW, math.ceil(hi) - (1 if hi_strict or hi != math.ceil(hi) else 0))
    if low > high:
        return
    # zigzag from the in-range value closest to zero
    start = min(max(0, low), high)
    yield start
    step = 1
    while True:
        emitted = False
        for cand in (start + step, start - step):
            if low <= cand <= high and cand != start:
                yield cand
                emitted = True
        if not emitted and (start + step > high and start - step < low):
            return
        step += 1


def row_holds(row, assignment):
    coeffs, strict, k = row
    total = sum(c * assignment[v] for v, c in coeffs.items())
    return total < k if strict else total <= k


def integer_search(stages, disequalities=()):
    """Assign integers in reverse elimination order: at each stage the
    remaining variable is bounded by rows over already-assigned variables,
    so intervals stay tight and backtracking is rare. Disequalities
    (coeffs, k), meaning coeffs . x != k, are a filter: each is checked as
    soon as its last variable is assigned."""
    order = [var for var, _ in stages]
    last = {}  # stage index -> disequalities it completes
    for coeffs, k in disequalities:
        last.setdefault(min(order.index(v) for v in coeffs), []).append((coeffs, k))

    def descend(i, partial):
        if i < 0:
            return dict(partial)
        var, rows = stages[i]
        lo, ls, hi, hs = var_interval(rows, var, partial)
        checks = last.get(i, ())
        for value in int_candidates(lo, ls, hi, hs):
            partial[var] = Fraction(value)
            if any(
                sum(c * partial[v] for v, c in coeffs.items()) == k
                for coeffs, k in checks
            ):
                continue
            found = descend(i - 1, partial)
            if found is not None:
                return found
        partial.pop(var, None)
        return None

    return descend(len(stages) - 1, {})


def real_backsolve(stages):
    assignment = {}
    for var, rows in reversed(stages):
        lo, ls, hi, hs = var_interval(rows, var, assignment)
        if lo is not None and hi is not None:
            value = lo if lo == hi else (lo + hi) / 2
        elif lo is not None:
            value = lo + (1 if ls else 0)
        elif hi is not None:
            value = hi - (1 if hs else 0)
        else:
            value = Fraction(0)
        assignment[var] = value
    return assignment


def solve_constraints(constraints, integer_mode):
    """Exact over the rationals; integer witnesses searched in the window.
    Over the integers a disequality filters the search; over the reals it
    splits into < or >."""
    disequalities = [(c, k) for c, op, k in constraints if op == "!="]
    others = [c for c in constraints if c[1] != "!="]
    if any(not coeffs and k == 0 for coeffs, k in disequalities):
        return None  # 0 != 0
    disequalities = [(coeffs, k) for coeffs, k in disequalities if coeffs]
    if disequalities and not integer_mode:
        (coeffs, const), rest = disequalities[0], disequalities[1:]
        others += [(c, "!=", k) for c, k in rest]
        for op in ("<", ">"):
            found = solve_constraints(others + [(coeffs, op, const)], integer_mode)
            if found is not None:
                return found
        return None
    rows = normalize(others)
    variables = sorted(
        {v for coeffs, _, _ in rows for v in coeffs}
        | {v for coeffs, _ in disequalities for v in coeffs}
    )
    stages = fm_stages(rows, variables)
    if stages is None:
        return None
    if integer_mode:
        return integer_search(stages, disequalities)
    return real_backsolve(stages)


def render_value(value, sort):
    value = Fraction(value)
    if sort == "Int":
        n = value.numerator
        return str(n) if n >= 0 else f"(- {-n})"
    if value.denominator == 1:
        n = value.numerator
        return f"{n}.0" if n >= 0 else f"(- {-n}.0)"
    text = f"(/ {abs(value.numerator)}.0 {value.denominator}.0)"
    return text if value >= 0 else f"(- {text})"


def main():
    source = open(sys.argv[1], encoding="utf-8") if len(sys.argv) > 1 else sys.stdin
    script = Script()
    answer = None
    for form in read_forms(source):
        if not isinstance(form, list) or not form:
            continue
        head = form[0]
        if head == "set-logic":
            script.logic = form[1]
        elif head == "declare-fun":
            script.sorts[form[1]] = form[3]
        elif head == "declare-const":
            script.sorts[form[1]] = form[2]
        elif head == "assert":
            script.add_assert(form[1])
        elif head == "check-sat":
            answer = script.solve()
            print("sat" if answer is not None else "unsat", flush=True)
        elif head == "get-model":
            if answer is None:
                continue
            assign, witness = answer
            lines = ["("]
            for symbol in sorted(script.sorts):
                sort = script.sorts[symbol]
                if sort == "Bool":
                    value = "true" if assign.get(symbol, False) else "false"
                    lines.append(f"  (define-fun {symbol} () Bool {value})")
                else:
                    num = witness.get(symbol, Fraction(0))
                    lines.append(
                        f"  (define-fun {symbol} () {sort} {render_value(num, sort)})"
                    )
            lines.append(")")
            print("\n".join(lines), flush=True)
        # set-option / set-info / exit are ignored


if __name__ == "__main__":
    main()
