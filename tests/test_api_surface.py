"""Every function and option of the library is used, and every default is
relied on.

An AST scan lists every function, method and property defined in `src/`.
Each must be named, by a call, a reference or an attribute read, somewhere
in `src/` or `perfbench/` outside its own body.  Re-exports in
`__init__.py` and tests do not count: a function that only tests call is
test code.  Python calls the dunder methods itself.

An AST scan lists the defaulted parameters of every function in `src/`.  A
parameter counts as set when some call in `src/` or `perfbench/` to a
callee of the same name, other than a function calling itself, passes it
by keyword, by position (after `self` on methods) or through
`*args`/`**kwargs`.  Tests do not count: a parameter that only tests set
is a constant in disguise and should be written as one, which a test may
patch.  A default that every call overrides is a required parameter in
disguise.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _defaulted_params():
    """(function name, parameter, positional index or None, where) for
    every parameter with a default; the index skips `self`/`cls`."""
    out = []
    for path, tree in _trees("src"):
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod"
                               for d in f.decorator_list)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            pos = args.posonlyargs + args.args
            skip = 1 if id(fn) in methods else 0
            where = f"{path.relative_to(ROOT)}:{fn.lineno}"
            for k, a in enumerate(pos[len(pos) - len(args.defaults):],
                                  len(pos) - len(args.defaults)):
                out.append((fn.name, a.arg, k - skip, where))
            for a, d in zip(args.kwonlyargs, args.kw_defaults):
                if d is not None:
                    out.append((fn.name, a.arg, None, where))
    return out


def _calls_in(node, caller, out):
    """Add the calls under node, made from the function named caller, to
    out; a call from a function to its own name is left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _calls_in(child, child.name, out)
            continue
        _calls_in(child, caller, out)
        if not isinstance(child, ast.Call):
            continue
        f = child.func
        name = getattr(f, "id", None) or getattr(f, "attr", None)
        if name is None or name == caller:
            continue
        starred = [i for i, a in enumerate(child.args)
                   if isinstance(a, ast.Starred)]
        n_pos = starred[0] if starred else len(child.args)
        kws = {k.arg for k in child.keywords}
        out.setdefault(name, []).append(
            (n_pos, bool(starred), kws - {None}, None in kws))


def _calls(*dirs):
    """callee name -> list of (n positional before any *, starred?,
    keyword names, **?) over every call in dirs, except a function's calls
    to its own name."""
    out = {}
    for _, tree in _trees(*dirs):
        _calls_in(tree, None, out)
    return out


def _is_set(index, param, calls):
    for n_pos, starred, kws, double_star in calls:
        if param in kws or double_star:
            return True
        if index is not None and (index < n_pos or starred):
            return True
    return False


def _relies(index, param, calls):
    """Some call passes param neither by keyword nor by position, and has
    no `*`/`**` that might pass it."""
    return any(param not in kws and not starred and not double_star
               and (index is None or index >= n_pos)
               for n_pos, starred, kws, double_star in calls)


def _calls_of(source):
    out = {}
    _calls_in(ast.parse(source), None, out)
    return out


def test_every_defaulted_parameter_is_set_by_a_caller():
    params = _defaulted_params()
    calls = _calls("src", "perfbench")
    # not vacuous: the scan sees options that callers are known to set
    names = {(fn, p) for fn, p, _, _ in params}
    assert {("norm_pl", "grid"), ("density", "spacing"),
            ("polynomial_approx", "dilation")} <= names
    # a function that passes its own option on to itself sets nothing
    own = _calls_of("def build(r, cap=9):\n    return build(r, cap=cap)\n"
                    "def use():\n    return build(1, 2)\n")
    assert own == {"build": [(2, False, set(), False)]}
    unset = [f"{where} {fn}({p}=...)" for fn, p, k, where in params
             if not _is_set(k, p, calls.get(fn, []))]
    assert unset == []


def test_every_default_is_relied_on_by_a_caller():
    params = _defaulted_params()
    # a default that only tests rely on is still relied on
    calls = _calls("src", "tests", "perfbench")
    # not vacuous: the scan sees calls that omit an option and calls that
    # all pass one
    assert _relies(3, "spacing", calls["density"])
    assert not _relies(1, "spacing", calls["dirichlet_domain"])
    overridden = [f"{where} {fn}({p}=...)" for fn, p, k, where in params
                  if not _relies(k, p, calls.get(fn, []))]
    assert overridden == []


def _definitions(tree):
    """(qualified name, node) of every function, method and property in
    tree, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)
    visit(tree, "")
    return out


def _references(tree):
    """(name, ids of the functions whose body holds it) for every name
    loaded and every attribute read in tree; a function's decorators and
    defaults lie outside its body."""
    out = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for part in (node.decorator_list + node.args.defaults
                         + [d for d in node.args.kw_defaults if d]):
                visit(part, inside)
            for stmt in node.body:
                visit(stmt, inside | {id(node)})
            return
        if isinstance(node, (ast.Name, ast.Attribute)) \
                and isinstance(node.ctx, ast.Load):
            out.append((getattr(node, "id", None) or node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)
    visit(tree, frozenset())
    return out


def _uncalled(defined, used):
    """module.qualname of each function in the (module, tree) pairs defined
    that no reference in the trees used names outside its own body."""
    seen = {}
    for tree in used:
        for name, inside in _references(tree):
            seen.setdefault(name, []).append(inside)
    return [f"{module}.{qual}" for module, tree in defined
            for qual, fn in _definitions(tree)
            if not (fn.name.startswith("__") and fn.name.endswith("__"))
            and all(id(fn) in inside for inside in seen.get(fn.name, []))]


# Functions that nothing in src/ or perfbench/ names, each with its reason.
_CALLED_ELSEWHERE = {
    "cli._Parser.error": "argparse calls it on a bad command line",
    "seshadri.psi_values": "the README's array form of psi^x, and the "
                           "reference the quasi-psh stencil is tested "
                           "against",
}


def test_every_function_is_named_by_a_caller():
    trees = list(_trees("src", "perfbench"))
    src = [(path.stem, tree) for path, tree in trees
           if path.relative_to(ROOT).parts[0] == "src"]
    uncalled = _uncalled(src, [tree for _, tree in trees])
    assert sorted(uncalled) == sorted(_CALLED_ELSEWHERE)
    # not vacuous: an uncalled function, method or nested function is
    # flagged, also when it calls itself
    snippet = ast.parse(
        "def used(n=0):\n"
        "    return used(n - 1) if n else Box().size\n"
        "def lonely(n):\n"
        "    return lonely(n - 1)\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def size(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return 2\n"
        "    def spare(self):\n"
        "        return self.spare\n"
        "print(used())\n")
    assert _uncalled([("m", snippet)], [snippet]) \
        == ["m.lonely", "m.Box.size.inner", "m.Box.spare"]


def test_orbit_queries_size_their_own_ball():
    # orbit_pairs fetches the ball that covers its query, so no function
    # that calls it also sizes a ball of its own; quasi_psh_check leaves
    # every orbit query and distance over its grid to _stencil_psi's blocks
    callers, qpsh = [], None
    for path, tree in _trees("src"):
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            names = {getattr(c.func, "id", None) or getattr(c.func, "attr",
                                                            None)
                     for c in ast.walk(fn) if isinstance(c, ast.Call)}
            if "orbit_pairs" in names:
                callers.append((fn.name, "enumerate_ball" in names))
            if fn.name == "quasi_psh_check":
                qpsh = names
    assert {"orbit_counts", "psi_values", "_stencil_psi"} \
        <= {f for f, _ in callers}
    assert [f for f, sized in callers if sized] == []
    assert "_stencil_psi" in qpsh
    assert not {"orbit_pairs", "psi_values", "distance"} & qpsh


def _function(module, name):
    tree = ast.parse((ROOT / "src" / "discforms" / f"{module}.py")
                     .read_text())
    fn, = [f for f in ast.walk(tree)
           if isinstance(f, ast.FunctionDef) and f.name == name]
    return fn


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _calls_by_loop(fn):
    """callee name -> [whether the call sits in a loop or comprehension]
    for every call in fn."""
    out = {}

    def visit(node, looped):
        if isinstance(node, ast.Call):
            out.setdefault(_callee(node), []).append(looped)
        for child in ast.iter_child_nodes(node):
            visit(child, looped or isinstance(node, _LOOPS))
    visit(fn, False)
    return out


def test_separation_scan_evaluates_one_table():
    # one eval_sections call over all samples, and one stacked SVD each
    # for the jets and the pairs, none of them per sample
    calls = _calls_by_loop(_function("embedding", "very_ampleness_scan"))
    assert calls["eval_sections"] == [False]
    assert calls["svd"] == [False, False]
    # not vacuous: a call in a loop or a comprehension is seen as looped
    snippet = ast.parse("def f(p):\n    a = [svd(x) for x in p]\n"
                        "    for x in p:\n        svd(x)\n    svd(p)\n")
    assert _calls_by_loop(snippet.body[0])["svd"] == [True, True, False]


def test_roundtrip_resums_through_poincare_values():
    # P_m(f) of the relative seed is poincare_values', so the round trip
    # spells no orbit terms of its own
    calls = _calls_by_loop(_function("kernels", "roundtrip_check"))
    assert not {"terms", "den_power"} & set(calls)
    assert len(calls["poincare_values"]) == 3


def _cli_functions():
    tree = ast.parse((ROOT / "src" / "discforms" / "cli.py").read_text())
    return {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}


def _called(fn, name):
    return [c for c in ast.walk(fn) if isinstance(c, ast.Call)
            and getattr(c.func, "id", None) == name]


def test_main_alone_writes_reports():
    fns = _cli_functions()
    sites = [(f, len(_called(fn, "_write_report"))) for f, fn in fns.items()]
    assert [(f, n) for f, n in sites if n] == [("main", 1)]


def test_each_command_registered_once_and_unnamed_in_its_body():
    # main names the report after args.command, so no cmd_* spells its own
    fns = _cli_functions()
    adds = [(c.args[0].value, c.args[1].id)
            for c in _called(fns["build_parser"], "add")]
    cmds = sorted(f for f in fns if f.startswith("cmd_"))
    assert sorted(fn for _, fn in adds) == cmds
    for command, fn in adds:
        strings = {n.value for n in ast.walk(fns[fn])
                   if isinstance(n, ast.Constant)}
        assert command not in strings, fn


def _fsum_calls(node):
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)
            and "fsum" in (getattr(c.func, "id", None),
                           getattr(c.func, "attr", None))]


def test_orbit_sums_go_through_exact_sum():
    # exact_sum gives fsum's bits without its per-term loop; its own
    # fallback is the one fsum call left in src/ (tests and perfbench keep
    # fsum as the independent oracle)
    calls, inside = [], []
    for _, tree in _trees("src"):
        calls += _fsum_calls(tree)
        inside += [c for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and fn.name == "exact_sum" for c in _fsum_calls(fn)]
    assert len(calls) == 1 and calls == inside


def _slot_uses(node):
    return sum(1 for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and n.attr == "_ball_at_0"
               or isinstance(n, ast.Constant) and n.value == "_ball_at_0")


def test_only_enumerate_ball_touches_the_ball_slot():
    # the group keeps one ball, the ball at 0, and enumerate_ball alone
    # reads or writes it; every other function asks enumerate_ball
    uses, owned = 0, 0
    for _, tree in _trees("src"):
        uses += _slot_uses(tree)
        owned += sum(_slot_uses(fn) for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     and fn.name == "enumerate_ball")
    assert uses == owned > 0


# Parameters that hold disc points or denominators, calls whose value is
# complex, and calls and attributes whose value is real whatever their
# operand.
_COMPLEX_PARAMS = {"z", "w", "zs", "x", "y", "den", "alpha", "beta"}
_COMPLEX_CALLS = {"conj", "terms", "apply", "jac", "mobius_den", "den_power",
                  "weighted_kernel"}
_REAL_CALLS = {"abs", "absolute", "len", "float", "int"}
_REAL_ATTRS = {"real", "imag", "shape", "size", "ndim"}
_POWER_CALLS = {"power", "float_power", "pow"}


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _may_be_complex(node, names):
    """Whether an expression may be complex: it holds a complex literal,
    `complex`, a complex-valued call or one of names, outside abs() and
    .real/.imag."""
    if isinstance(node, ast.Call) and _callee(node) in _REAL_CALLS \
            or isinstance(node, ast.Attribute) and node.attr in _REAL_ATTRS:
        return False
    if isinstance(node, ast.Constant):
        return isinstance(node.value, complex)
    if isinstance(node, ast.Name):
        return node.id in names or node.id == "complex"
    if isinstance(node, ast.Call) and _callee(node) in _COMPLEX_CALLS:
        return True
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        inner = set(names)      # the loop names are local to the expression
        for gen in node.generators:
            bound = {t.id for t in ast.walk(gen.target)
                     if isinstance(t, ast.Name)}
            complex_ = _may_be_complex(gen.iter, inner)
            inner = inner | bound if complex_ else inner - bound
        return _may_be_complex(node.elt, inner)
    return any(_may_be_complex(c, names)
               for c in ast.iter_child_nodes(node))


def _complex_powers(fn):
    """Powers of complex operands in a function and the functions it
    defines.  A parameter named like a point counts as complex, and so
    does every name bound to an expression that may be complex."""
    names = {a.arg for f in ast.walk(fn) if isinstance(f, ast.FunctionDef)
             for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs
             if a.arg in _COMPLEX_PARAMS}
    binds = [(t, n.value) for n in ast.walk(fn) if isinstance(n, ast.Assign)
             for t in n.targets]
    binds += [(n.target, n.value) for n in ast.walk(fn)
              if isinstance(n, (ast.AugAssign, ast.AnnAssign)) and n.value]
    binds += [(n.target, n.iter) for n in ast.walk(fn)
              if isinstance(n, ast.For)]
    while True:
        grown = {t.id for target, value in binds
                 if _may_be_complex(value, names)
                 for t in ast.walk(target) if isinstance(t, ast.Name)}
        if grown <= names:
            break
        names |= grown
    bases = [n.left for n in ast.walk(fn)
             if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)]
    bases += [n.target for n in ast.walk(fn)
              if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Pow)]
    bases += [n.args[0] for n in ast.walk(fn) if isinstance(n, ast.Call)
              and _callee(n) in _POWER_CALLS and n.args]
    return sorted(f"{fn.name}:{b.lineno}" for b in bases
                  if _may_be_complex(b, names))


def test_complex_powers_go_through_den_power():
    # NumPy's complex ** runs a scalar npy_cpow per element; den_power
    # takes the same power by array multiplies, and moduli take real
    # powers of |den|^2
    found = []
    for name in ("series", "embedding", "kernels", "geometry"):
        tree = ast.parse((ROOT / "src" / "discforms" / f"{name}.py")
                         .read_text())
        found += [f"{name}.{site}" for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  for site in _complex_powers(fn)]
    assert found == []
    # not vacuous: the scan sees complex bases through names, tuples,
    # loops and parameters, and lets moduli and real parts through
    snippet = ast.parse(
        "def f(ball, z, m, w, n):\n"
        "    gz, den = ball.terms(z)\n"
        "    a = den ** (-2 * m)\n"
        "    b = np.power(gz, 2)\n"
        "    for d in zip(den):\n"
        "        d **= 2\n"
        "    e = np.abs(den) ** 2 + den.real ** 2 + np.pi ** m + n ** 2\n"
        "    t, u = (np.max(v) for v in (np.abs(z), len(gz)))\n"
        "    c = [v for v in (gz, den)]\n"
        "    return w ** 2 + (1.0 - t) ** m + u ** 2 + c ** 2 + a * b * e\n"
    ).body[0]
    assert _complex_powers(snippet) == ["f:10", "f:10", "f:3", "f:4", "f:6"]


_BLAS_CALLS = {"dot", "matmul", "einsum", "tensordot"}


def _blas_sites(tree):
    """Lines of the matrix products in tree: `@`, `@=` and calls named
    dot, matmul, einsum or tensordot."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, (ast.BinOp, ast.AugAssign))
                  and isinstance(n.op, ast.MatMult)
                  or isinstance(n, ast.Call) and _callee(n) in _BLAS_CALLS)


def test_src_makes_no_blas_call():
    # OpenBLAS starts threads of its own, which put determinism and the
    # timings of a 2-core host at risk; the library works elementwise
    # (embedding's np.linalg.svd of stacked 2 x (d+1) matrices is the one
    # exception)
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path, tree in _trees("src") for line in _blas_sites(tree)]
    assert found == []
    # not vacuous: every spelling is seen, and the svd is let through
    snippet = ast.parse("a = x @ y\nb @= a\nc = np.dot(a, b)\nd = a.dot(b)\n"
                        "e = np.matmul(a, b) + np.einsum('i,i', a, b)\n"
                        "f = np.tensordot(a, b, 1)\n"
                        "g = np.linalg.svd(a, compute_uv=False)\n")
    assert _blas_sites(snippet) == [1, 2, 3, 4, 5, 5, 6]


def _polyval_sites(tree):
    """Lines that name polyval: a name, an attribute or an import."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and n.id == "polyval"
                  or isinstance(n, ast.Attribute) and n.attr == "polyval"
                  or isinstance(n, ast.alias) and n.name == "polyval")


def test_polynomials_evaluate_by_one_horner():
    # series._horner is the library's one polynomial evaluator; np.polyval
    # allocates two fresh arrays per step
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path, tree in _trees("src") for line in _polyval_sites(tree)]
    assert found == []
    # not vacuous: every spelling is seen
    snippet = ast.parse("a = np.polyval(c, z)\nfrom numpy import polyval\n"
                        "b = polyval(c, z)\n")
    assert _polyval_sites(snippet) == [1, 2, 3]


def _callers(name):
    """module.function of every function in src/ whose body, nested
    functions included, calls name."""
    return sorted(f"{path.stem}.{fn.name}" for path, tree in _trees("src")
                  for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  and any(isinstance(c, ast.Call) and _callee(c) == name
                          for c in ast.walk(fn)))


def test_points_are_checked_where_they_enter():
    # check_disc_point runs once on the caller's points, in the public
    # function that takes them; nothing the library computes from checked
    # points is checked again, so no geometry primitive calls it and no
    # private function does, but for the one whose points can leave the
    # disc: a stencil point past the guard.  A polygon that a group which
    # is not cocompact leaves unbounded is reported by
    # geometry.dirichlet_polygon, not checked as points
    callers = _callers("check_disc_point")
    assert [c for c in callers if c.startswith("geometry.")] == []
    assert [c for c in callers if c.split(".")[1].startswith("_")] \
        == ["seshadri._stencil_psi"]
    # not vacuous: the entry points are seen
    assert {"group.enumerate_ball", "group.orbit_pairs", "group.reduce_points",
            "embedding.eval_sections", "series.poincare_values",
            "kernels.relative_poincare", "seshadri.density"} <= set(callers)


def test_polygon_cut_has_one_owner():
    # the Sutherland-Hodgman clip is geometry's: dirichlet_polygon calls it,
    # for the ball cut of dirichlet_vertices and the alphabet cut of the D_0
    # certificate alike; the second list shows that the scan sees calls
    assert _callers("_clip_polygon") == ["geometry.dirichlet_polygon"]
    assert _callers("dirichlet_polygon") == ["domain.dirichlet_vertices",
                                             "group._side_pairing"]


def _slack_literals(tree):
    """Lines of 2 ** -40 and 2 ** -39, integer or float base."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                  and isinstance(n.left, ast.Constant) and n.left.value == 2
                  and isinstance(n.right, ast.UnaryOp)
                  and isinstance(n.right.op, ast.USub)
                  and isinstance(n.right.operand, ast.Constant)
                  and n.right.operand.value in (39, 40))


def test_distance_rounding_slack_has_one_owner():
    # geometry.rho_error spells 2^-40 e^L once, and each site that needs a
    # distance's rounding slack calls it
    found, owned = [], []
    for path, tree in _trees("src"):
        found += [(path.stem, line) for line in _slack_literals(tree)]
        owned += [(path.stem, line) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name == "rho_error" for line in _slack_literals(fn)]
    assert found == owned and [m for m, _ in owned] == ["geometry"]
    assert _callers("rho_error") == [
        "group._within_reach", "group.enumerate_ball", "group.orbit_pairs",
        "seshadri._stencil_psi"]
    # not vacuous: both exponents and both bases are seen, other powers not
    snippet = ast.parse("a = 2.0 ** -40 * x\nb = 2 ** -39\nc = 2.0 ** -53\n"
                        "d = 2.0 ** 40\n")
    assert _slack_literals(snippet) == [1, 2]


_CONJ_CALLS = {"conj", "conjugate"}


def _is_conj(node):
    return isinstance(node, ast.Call) and _callee(node) in _CONJ_CALLS


def _spells_den(fn):
    """Whether fn, nested functions included, both adds a conj() call and
    multiplies by one: conj(b) z + conj(a) as one expression, or as a
    multiply into a buffer followed by += conj(a)."""
    nodes = list(ast.walk(fn))
    adds = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)
               and (_is_conj(n.left) or _is_conj(n.right))
               or isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add)
               and _is_conj(n.value) for n in nodes)
    muls = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
               and (_is_conj(n.left) or _is_conj(n.right))
               or isinstance(n, ast.Call) and _callee(n) == "multiply"
               and any(map(_is_conj, n.args)) for n in nodes)
    return adds and muls


def test_denominator_has_one_owner_per_form():
    # den = conj(beta) z + conj(alpha) is spelled by geometry.mobius_den
    # for single elements and by OrbitBall.terms for a ball; every orbit
    # sum, the constant seeds' too, takes den from terms
    found = sorted(f"{path.stem}.{qual}" for path, tree in _trees("src")
                   for qual, fn in _definitions(tree) if _spells_den(fn))
    assert found == ["geometry.mobius_den", "group.OrbitBall.terms"]
    # not vacuous: both spellings are seen, also with conjugate(); the
    # disc ratio's 1 - conj(z) w and a product through names are not
    snippet = ast.parse(
        "def one(a, b, z):\n"
        "    return np.conj(b) * z + np.conj(a)\n"
        "def buffered(a, b, z, den):\n"
        "    np.multiply(np.conj(b), z, out=den)\n"
        "    den += np.conj(a)\n"
        "def method(a, b, z):\n"
        "    return a.conjugate() + z * b.conjugate()\n"
        "def ratio(z, w):\n"
        "    return np.abs((z - w) / (1.0 - np.conj(z) * w))\n"
        "def product(pa, pb, ga, gb):\n"
        "    gbc = np.conj(gb)\n"
        "    return pa * ga + pb * gbc\n")
    assert [q for q, fn in _definitions(snippet) if _spells_den(fn)] \
        == ["one", "buffered", "method"]


def test_cutoff_value_and_slope_have_one_owner_each():
    # psi^x sums a(t) alone; a'(t) is taken only for cutoff-check's pair
    assert _callers("cutoff_value") == ["seshadri._cutoff_sum",
                                        "seshadri.cutoff_a"]
    assert _callers("cutoff_slope") == ["seshadri.cutoff_a"]
    assert _callers("cutoff_a") == ["cli.cmd_cutoff_check"]
