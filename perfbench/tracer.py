"""Spans and counters recorded from outside the program.

The recorder replaces public functions of genlambda with thin wrappers for
the length of a `with` block and restores them afterwards. A span records
its name, start, end, parent and the benchmark phase it ran in; a counter
only counts calls. Spans stay in memory until `write`, which writes them to
a JSON-lines file.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

# One entry per traced name: (module, attribute) bindings that must all be
# wrapped, because callers bind some functions by name at import time.
SPANS = {
    "qseries.xpoly_mul": [("qseries", "xpoly_mul_windows"), ("minpoly", "xpoly_mul_windows")],
    "qseries.inverse": [("qseries", "QSeries.inverse")],
    "qseries.twist": [("qseries", "QSeries.twist")],
    "lam.lambda_series": [("lam", "lambda_series"), ("minpoly", "lambda_series"),
                          ("cmval", "lambda_series")],
    "forms.e_series": [("forms", "e_series"), ("lam", "e_series")],
    "forms.j_series": [("forms", "j_series"), ("minpoly", "j_series"), ("cmval", "j_series")],
    "minpoly.build_F": [("minpoly", "build_F")],
    "minpoly.check_root_identity": [("minpoly", "check_root_identity")],
    "minpoly.verify_theorem1": [("minpoly", "verify_theorem1")],
    "minpoly.q0_structure": [("minpoly", "q0_structure")],
    "minpoly.specialize": [("minpoly", "specialize_and_factor")],
    "polyk.nth_root_monic": [("polyk", "nth_root_monic"), ("minpoly", "nth_root_monic")],
    "polyk.ppow": [("polyk", "ppow")],
    "polyk.peval": [("polyk", "peval"), ("minpoly", "peval")],
    "polyk.squarefree_certificate": [("polyk", "squarefree_certificate"),
                                     ("minpoly", "squarefree_certificate")],
    "cmval.eval_lambda_numeric": [("cmval", "eval_lambda_numeric")],
}
COUNTERS = {
    "cyclotomic.mul": [("cyclotomic", "CycNum.__mul__"), ("cyclotomic", "CycNum.__rmul__")],
    "cyclotomic.inv": [("cyclotomic", "CycNum.inv")],
    "cmval.eval_e_numeric": [("cmval", "eval_e_numeric")],
}


def _kernel_class(args) -> str:
    """leaf: an operand has <= 2 X-coefficients; series: both have 1; else tree."""
    lp, lq = len(args[1]), len(args[2])
    if lp == 1 and lq == 1:
        return "series"
    return "leaf" if min(lp, lq) <= 2 else "tree"


def _operand_stats(args) -> tuple[int, int]:
    """(pairs, max bits): product of the operands' coefficient counts, and the
    largest numerator or denominator among their rational coordinates."""
    sizes = []
    bits = 0
    for poly in (args[1], args[2]):
        total = 0
        for (_, _, cs) in poly:
            total += len(cs)
            for c in cs:
                for fr in c.coords:
                    b = max(fr.numerator.bit_length(), fr.denominator.bit_length())
                    if b > bits:
                        bits = b
        sizes.append(total)
    return sizes[0] * sizes[1], bits


def _specialize_class(args) -> str:
    y = args[1]
    return "power" if not hasattr(y, "coords") and y in (0, 1728) else "squarefree"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict[str, Counter] = {}  # phase -> counter name -> count
        self.max_bits = 0
        self.missing: list[str] = []  # bindings that no longer exist
        self.absent: list[str] = []  # traced names with no binding left
        self.phase = "main"
        self._stack: list[int] = []

    def _count(self, key: str, n: int = 1):
        self.counts.setdefault(self.phase, Counter())[key] += n

    def count(self, key: str, phase: str | None = None) -> int:
        """A counter's total over every phase, or over one."""
        phases = self.counts if phase is None else [phase]
        return sum(self.counts.get(p, Counter())[key] for p in phases)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name
            if name == "qseries.xpoly_mul":
                label = f"{name}.{_kernel_class(args)}"
                pairs, bits = _operand_stats(args)
                self._count(label + ".pairs", pairs)
                if bits > self.max_bits:
                    self.max_bits = bits
            elif name == "minpoly.specialize":
                label = f"{name}.{_specialize_class(args)}"
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.phase]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every binding in SPANS and COUNTERS for the block's duration.

        A binding that no longer exists is listed in `missing`; a name none
        of whose bindings exists is listed in `absent`.
        """
        saved = []
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, bindings in table.items():
                wrappers = {}
                for mod_name, attr in bindings:
                    owner = modules[mod_name]
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part, None)
                    fn = getattr(owner, leaf, None) if owner is not None else None
                    if fn is None:
                        self.missing.append(f"{mod_name}.{attr}")
                        continue
                    if id(fn) not in wrappers:
                        wrapper = make(name, fn)
                        if hasattr(fn, "cache_clear"):  # keep cached functions clearable
                            wrapper.cache_clear = fn.cache_clear
                        wrappers[id(fn)] = wrapper
                    saved.append((owner, leaf, fn))
                    setattr(owner, leaf, wrappers[id(fn)])
                if not wrappers:
                    self.absent.append(name)
        try:
            yield self
        finally:
            for owner, leaf, fn in reversed(saved):
                setattr(owner, leaf, fn)

    # -- summaries -----------------------------------------------------------

    def totals(self, phase: str | None = None) -> dict:
        """name -> (calls, inclusive seconds, self seconds), over every phase
        or over one.

        Inclusive time counts only the outermost of nested same-name spans;
        self time is a span's duration minus the union of its children.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start  # children of one span never overlap
        out: dict[str, list] = {}
        for idx, (name, start, end, parent, span_phase) in enumerate(spans):
            if phase is not None and span_phase != phase:
                continue
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            if not self._inside_same(idx):
                entry[1] += end - start
            entry[2] += end - start - covered[idx]
        return {k: tuple(v) for k, v in out.items()}

    def _inside_same(self, idx: int) -> bool:
        name = self.spans[idx][0]
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for idx, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")
