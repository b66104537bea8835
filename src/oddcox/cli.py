"""Command-line front end.

Output is plain text, one fact per line, in a stable order; ``--format
json`` emits the same facts as a single JSON object.  Domain errors print
one line ``error: <slug>[: detail]`` and exit 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

# handlers read autkit, units, pathgroups and oracle off the package, which
# imports each on first use, so a process loads only its own command's modules
import oddcox

from . import core, words
from .errors import ImageTooLarge, OddCoxeterError, SystemFileError


class CommandResult(core._Record):
    exit_code: int
    lines: list


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise SystemFileError(f"cannot read {path}: {exc.strerror}") from exc


def _load_system(path: str) -> core.CoxeterSystem:
    return core.system_from_json(_read(path))


def _load_star(path: str) -> core.StarForm:
    return core.star_form(_load_system(path))


def _load_endo(ns):
    """The star ``ns.system`` and the endomorphism file ``ns.endo`` on it."""
    star = _load_star(ns.system)
    return star, oddcox.autkit.endo_from_json(star.system, _read(ns.endo))


def _budget(ns, default: int = words.DEFAULT_ORBIT_BUDGET) -> int:
    """The ``--budget`` value, or ``default`` when none is given."""
    return default if ns.budget is None else ns.budget


def _fact_lines(facts) -> list:
    out = []
    for key, value in facts:
        if key.startswith("_"):
            out.append(str(value))
        else:
            out.append(f"{key}: {value}")
    return out


def _fact_json(facts) -> list:
    data: dict = {}
    for key, value in facts:
        key = key.lstrip("_")
        if key in data:
            if not isinstance(data[key], list):
                data[key] = [data[key]]
            data[key].append(value)
        else:
            data[key] = value
    return [json.dumps(data)]


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _word_facts(w) -> list:
    return [("_word", words.format_word(w)), ("length", len(w))]


def _edge_facts(sys) -> list:
    return [("edge", f"{i} {j} {m}") for i, j, m in sys.finite_pairs()]


def _image_facts(endo) -> list:
    return [
        (f"image_{g}", words.format_word(w)) for g, w in enumerate(endo.images, 1)
    ]


# ---------------------------------------------------------------- commands


def cmd_validate(ns):
    sys = _load_system(ns.system)
    return [("valid", "true"), ("rank", sys.rank), *_edge_facts(sys)]


def cmd_classify(ns):
    sys = _load_system(ns.system)
    c = core.classify(sys)
    return [
        # a system is odd by construction: CoxeterSystem accepts odd labels only
        ("odd", "true"),
        ("connected", _bool(c.connected)),
        ("tree", _bool(c.tree)),
        ("in_tw", _bool(c.in_tw)),
    ]


def cmd_invariants(ns):
    inv = core.invariants(_load_system(ns.system))
    return [
        ("rank", inv.rank),
        ("exponents", " ".join(str(m) for m in inv.finite_exponents)),
    ]


def cmd_canonical_star(ns):
    inv = core.invariants(_load_system(ns.system))
    star = core.canonical_star(inv)
    facts = [
        ("rank", star.rank),
        ("t", " ".join(str(t) for t in star.t)),
    ]
    for block in star.blocks:
        facts.append(("block", " ".join(str(v) for v in block)))
    facts.append(("system", core.system_to_json(star.system)))
    return facts


def cmd_iso(ns):
    a = _load_system(ns.system_a)
    b = _load_system(ns.system_b)
    return [("isomorphic", _bool(core.decide_isomorphic(a, b)))]


def cmd_reduce(ns):
    sys = _load_system(ns.system)
    return _word_facts(words.reduce_word(sys, words.parse_word(ns.word), _budget(ns)))


def cmd_equal(ns):
    sys = _load_system(ns.system)
    w, v = words.parse_word(ns.word_w), words.parse_word(ns.word_v)
    return [("equal", _bool(words.equal(sys, w, v, _budget(ns))))]


def cmd_multiply(ns):
    sys = _load_system(ns.system)
    w, v = words.parse_word(ns.word_w), words.parse_word(ns.word_v)
    return _word_facts(words.multiply(sys, w, v, _budget(ns)))


def cmd_ball(ns):
    sys = _load_system(ns.system)
    ball_budget = _budget(ns, oddcox.oracle.DEFAULT_BALL_BUDGET)
    ball = oddcox.oracle.cayley_ball(sys, ns.radius, ball_budget)
    facts = [("size", len(ball.elements))]
    for w in ball.elements:
        facts.append(("element", words.format_word(w)))
    return facts


def cmd_search(ns):
    sys = _load_system(ns.system)
    if ns.kind == "conjugator" and ns.word_b is None:
        raise _UsageError("conjugator search needs a target word")
    a = words.parse_word(ns.word_a)
    b = words.parse_word(ns.word_b) if ns.kind == "conjugator" else None
    hits = oddcox.oracle.ball_search(
        sys, ns.kind, a, b, radius=ns.radius,
        ball_budget=_budget(ns, oddcox.oracle.DEFAULT_BALL_BUDGET),
        orbit_budget=_budget(ns),
    )
    facts = [("count", len(hits))]
    for w in hits:
        facts.append(("witness", words.format_word(w)))
    return facts


def cmd_aut_verify(ns):
    star, endo = _load_endo(ns)
    return [("verified", _bool(oddcox.autkit.verify_endo(star, endo, _budget(ns))))]


def cmd_aut_factorize(ns):
    star, endo = _load_endo(ns)
    f = oddcox.autkit.factorize(star, endo, _budget(ns))
    return [
        ("inner", words.format_word(f.inner)),
        ("perm", core.cycle_notation((1, *f.perm))),
        ("cvec", " ".join(str(k) for k in f.cvec)),
        ("is_inner", _bool(oddcox.autkit.is_inner(star, f))),
    ]


def cmd_aut_invert(ns):
    star, endo = _load_endo(ns)
    return _image_facts(oddcox.autkit.try_invert(star, endo, _budget(ns)))


def cmd_aut_witness(ns):
    star, endo = _load_endo(ns)
    f = oddcox.autkit.factorize(star, endo, _budget(ns))
    w = oddcox.autkit.normality_witness(star, f, _budget(ns))
    return [
        ("g", words.format_word(w.g)),
        ("merge", f"{w.merge[0]} {w.merge[1]}"),
        ("evidence", words.format_word(w.evidence)),
        ("quotient", core.system_to_json(w.quotient)),
    ]


def cmd_out(ns):
    d = oddcox.units.out_descriptor(_load_star(ns.system))
    facts = [
        ("out_order", d.out_order),
        ("c_shape", " ".join(f"{m}^{k}" for m, k in d.c_shape)),
        ("c_order", d.c_order),
        ("out_abelian", " ".join(str(v) for v in d.out_abelian) or "1"),
        ("graph_part", " ".join(f"S{k}" for k in d.graph_part)),
        ("inn_c_splits", _bool(d.inn_c_splits)),
        ("aut_out_split_guaranteed", _bool(d.aut_out_split_guaranteed)),
    ]
    if d.note:
        facts.append(("note", d.note))
    return facts


def cmd_split(ns):
    d = oddcox.units.split_inn_c(_load_star(ns.system))
    if d is None:
        return [("splits", "false")]
    facts = [("splits", "true"), ("order", d.order)]
    for vec in d.generators:
        facts.append(("generator", " ".join(str(v) for v in vec)))
    return facts


def cmd_commutator(ns):
    c = oddcox.pathgroups.commutator_presentation(_load_system(ns.system))
    facts = [
        ("kind", c.kind),
        ("generators", " ".join(c.names)),
    ]
    for g, relator in enumerate(c.presentation.relators, start=1):
        facts.append(("relator", f"{c.names[g - 1]}^{len(relator)}"))
    for g, image in enumerate(c.action):
        rendered = " ".join(
            c.names[abs(s) - 1] + ("^-1" if s < 0 else "") for s in image
        )
        facts.append(("action", f"{c.names[g]} -> {rendered}"))
    return facts


def cmd_rs_kernel(ns):
    sys = _load_system(ns.system)
    try:
        data = json.loads(_read(ns.hom))
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "degree" not in data or "images" not in data:
        raise SystemFileError("hom file needs fields 'degree' and 'images'")
    degree = data["degree"]
    if not core._is_int(degree) or degree < 1:
        raise SystemFileError("'degree' must be a positive integer")
    texts = data["images"]
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise SystemFileError("'images' must be an array of cycle strings")
    pathgroups = oddcox.pathgroups
    # the images and the identity each hold degree cells in the image search
    cells = degree * (len(texts) + 1)
    if cells > pathgroups.MAX_SEARCH_CELLS:
        raise ImageTooLarge(
            f"{len(texts)} images of degree {degree} take {cells} cells, "
            f"over the cap {pathgroups.MAX_SEARCH_CELLS}"
        )
    images = [pathgroups.parse_cycles(text, degree) for text in texts]
    pres = pathgroups.rs_kernel(sys, images)
    facts = [
        ("generators", pres.num_generators),
        ("relator_count", len(pres.relators)),
    ]
    for r in pres.relators:
        facts.append(("relator", " ".join(str(s) for s in r)))
    return facts


def cmd_ln(ns):
    # L_n has rank n - 1, capped like the rank of a system file
    limit = core.MAX_FILE_RANK + 1
    if ns.n > limit:
        raise _UsageError(f"{ns.n} strands exceed the limit {limit}")
    pathgroups = oddcox.pathgroups
    if ns.ln_command == "pi":
        perm = pathgroups.pi_image(ns.n, words.parse_word(ns.word))
        return [("_perm", pathgroups.format_cycles(perm))]
    if ns.ln_command == "pure":
        return [("pure", _bool(pathgroups.is_pure(ns.n, words.parse_word(ns.word))))]
    if ns.ln_command == "witness":
        w = pathgroups.pl_witness(ns.n, _budget(ns))
        return [
            ("g", words.format_word(w.g)),
            ("image", pathgroups.format_cycles(w.image)),
            *_image_facts(w.endo),
        ]
    if ns.ln_command == "rank":
        return [("rank", pathgroups.free_rank(pathgroups.build_ln(ns.n), ns.index))]
    sys = pathgroups.build_ln(ns.n)
    return [("rank", sys.rank), *_edge_facts(sys), ("system", core.system_to_json(sys))]


def cmd_twisted(ns):
    pathgroups = oddcox.pathgroups
    if ns.family == "sym":
        elements, table = pathgroups.symmetric_group_table(ns.n)
    else:
        table = pathgroups.cyclic_group_table(ns.n)
        elements = None
    if ns.aut == "identity":
        aut = list(range(len(table)))
    elif ns.aut == "inversion":
        aut = pathgroups.inversion_map(table)
    else:  # conj <perm>
        if elements is None:
            raise _UsageError("conjugation needs the symmetric family")
        target = pathgroups.parse_cycles(ns.perm, ns.n)
        g = next(
            i for i, el in enumerate(elements) if el.images == target.images
        )
        aut = pathgroups.conjugation_map(table, g)
    return [("classes", pathgroups.twisted_count(table, aut))]


# ----------------------------------------------------------------- parser


def _common(suppress: bool) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    default = argparse.SUPPRESS if suppress else None
    p.add_argument("--budget", type=int, default=default)
    p.add_argument("--format", choices=("text", "json"), default=default)
    return p


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="oddcox", parents=[_common(False)])
    sub = top.add_subparsers(dest="command", required=True)
    c = _common(True)

    def add(name, handler, *positionals):
        p = sub.add_parser(name, parents=[c])
        for arg in positionals:
            if isinstance(arg, tuple):
                p.add_argument(arg[0], **arg[1])
            else:
                p.add_argument(arg)
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, "system")
    add("classify", cmd_classify, "system")
    add("invariants", cmd_invariants, "system")
    add("canonical-star", cmd_canonical_star, "system")
    add("iso", cmd_iso, "system_a", "system_b")
    add("reduce", cmd_reduce, "system", "word")
    add("equal", cmd_equal, "system", "word_w", "word_v")
    add("multiply", cmd_multiply, "system", "word_w", "word_v")
    ball = add("ball", cmd_ball, "system")
    ball.add_argument("--radius", type=int, required=True)
    search = add(
        "search",
        cmd_search,
        "system",
        ("kind", {"choices": ("conjugator", "centralizer")}),
        "word_a",
        ("word_b", {"nargs": "?", "default": None}),
    )
    search.add_argument("--radius", type=int, required=True)
    add("aut-verify", cmd_aut_verify, "system", "endo")
    add("aut-factorize", cmd_aut_factorize, "system", "endo")
    add("aut-invert", cmd_aut_invert, "system", "endo")
    add("aut-witness", cmd_aut_witness, "system", "endo")
    add("out", cmd_out, "system")
    add("split", cmd_split, "system")
    add("commutator", cmd_commutator, "system")
    add("rs-kernel", cmd_rs_kernel, "system", "hom")
    ln = sub.add_parser("ln", parents=[c])
    lnsub = ln.add_subparsers(dest="ln_command", required=True)
    for name, extra in (
        ("build", ()),
        ("pi", ("word",)),
        ("pure", ("word",)),
        ("witness", ()),
        ("rank", ("index",)),
    ):
        p = lnsub.add_parser(name, parents=[c])
        p.add_argument("n", type=int)
        for field in extra:
            p.add_argument(field, type=int if field == "index" else str)
        p.set_defaults(handler=cmd_ln)
    add(
        "twisted",
        cmd_twisted,
        ("family", {"choices": ("sym", "cyc")}),
        ("n", {"type": int}),
        ("aut", {"choices": ("identity", "inversion", "conj")}),
        ("perm", {"nargs": "?", "default": "()"}),
    )
    return top


def execute(argv) -> CommandResult:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(exit_code=0 if exc.code in (0, None) else 2, lines=[])
    try:
        facts = ns.handler(ns)
    except _UsageError as err:
        return CommandResult(2, [f"usage: {err}"])
    except OddCoxeterError as err:
        if ns.format == "json":
            line = json.dumps({"error": err.slug, "detail": str(err)})
        else:
            detail = "" if err.slug == "budget" else str(err)
            line = f"error: {err.slug}" + (f": {detail}" if detail else "")
        return CommandResult(1, [line])
    render = _fact_json if ns.format == "json" else _fact_lines
    return CommandResult(0, render(facts))


def main() -> None:
    result = execute(_sys.argv[1:])
    for line in result.lines:
        print(line)
    raise SystemExit(result.exit_code)


if __name__ == "__main__":
    main()
