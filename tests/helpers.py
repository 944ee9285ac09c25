"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
span equality is re-derived by comparing realized maps on a rational grid,
the marked-arrow preorder is re-derived from realized geometry on a uniform
grid, and ball recognition is re-derived by exhaustive search over standard
boxes.  The package itself runs on integers only; the ``Fraction`` corner,
volume and order of a cell live here, as references.
"""

import itertools
import random
import re
from bisect import bisect_right
from fractions import Fraction

import operad_groups as og
from operad_groups.perms import block_starts, locate_block

TREE2 = og.BackendConfig.tree(2)
TREE3 = og.BackendConfig.tree(3)
CUBE1 = og.BackendConfig.cube(1)
CUBE2 = og.BackendConfig.cube(2)
CUBE3 = og.BackendConfig.cube(3)
PLANAR2 = og.BackendConfig.tree(2, flavor=og.PLANAR)

# Five boxes tiling the unit 3-cube in a pinwheel around a central axis:
# every midplane slices through some box, so no sequence of halving cuts
# separates them even though they form a genuine partition.
PINWHEEL = (
    og.Box((1, 0, 1), (0, 0, 0)),
    og.Box((1, 1, 0), (1, 0, 0)),
    og.Box((0, 1, 1), (0, 1, 1)),
    og.Box((1, 1, 1), (1, 1, 0)),
    og.Box((1, 1, 1), (0, 0, 1)),
)


def lower(cell, base):
    """The lower corner of a cell, one ``Fraction`` per axis."""
    return tuple(Fraction(a, base**e) for e, a in zip(cell.exps, cell.offs))


def upper(cell, base):
    """The upper corner of a cell, one ``Fraction`` per axis."""
    return tuple(Fraction(a + 1, base**e) for e, a in zip(cell.exps, cell.offs))


def volume(cell, base):
    """The volume of a cell as a ``Fraction``."""
    return Fraction(1, base ** sum(cell.exps))


def sort_key(cell, base):
    """Lexicographic cell order: the lower corner, then the exponents."""
    return lower(cell, base), cell.exps


class _PieceIndex:
    """Locates the affine piece of a span containing a point of the codomain."""

    def __init__(self, g):
        self.base = g.config.base
        self.dim = g.config.dim
        self.buckets = {}
        for (jd, d_cell), (jn, n_cell) in og.realized_map(g):
            self.buckets.setdefault(jd, []).append((d_cell, jn, n_cell))
        if self.dim == 1:
            for pieces in self.buckets.values():
                pieces.sort(key=lambda row: lower(row[0], self.base))

    def image(self, j, point):
        pieces = self.buckets.get(j, ())
        if self.dim == 1:
            lowers = [lower(row[0], self.base)[0] for row in pieces]
            i = bisect_right(lowers, point[0]) - 1
            if i >= 0:
                return self._affine(pieces[i], j, point)
        for row in pieces:
            d_cell = row[0]
            lo, hi = lower(d_cell, self.base), upper(d_cell, self.base)
            if all(a <= p < b for a, p, b in zip(lo, point, hi)):
                return self._affine(row, j, point)
        raise og.NotPartitionError(f"point {point} not covered at coordinate {j}")

    def _affine(self, row, j, point):
        d_cell, jn, n_cell = row
        img = tuple(
            nlo + (p - dlo) * Fraction(self.base) ** (de - ne)
            for p, dlo, nlo, de, ne in zip(
                point,
                lower(d_cell, self.base),
                lower(n_cell, self.base),
                d_cell.exps,
                n_cell.exps,
            )
        )
        return jn, img


def grid_eq(g, h):
    """Grid oracle for span equality: compare the realized maps on every
    grid point with denominator base^K, K one more than the largest
    exponent in either span."""
    if g.config != h.config or g.base_len != h.base_len:
        raise og.BaseMismatchError("spans live over different base words")
    base, dim = g.config.base, g.config.dim
    exps = [0]
    for span in (g, h):
        for arrow in (span.den, span.num):
            for op in arrow.forest:
                for cell in op.cells:
                    exps.extend(cell.exps)
    K = max(exps) + 1
    index_g, index_h = _PieceIndex(g), _PieceIndex(h)
    step = Fraction(1, base**K)
    for j in range(g.base_len):
        for coords in itertools.product(range(base**K), repeat=dim):
            point = tuple(c * step for c in coords)
            if index_g.image(j, point) != index_h.image(j, point):
                return False
    return True


def random_operation(config, rng, gens):
    """A random operation built by grafting `gens` generators one at a time."""
    op = og.op_identity(config)
    for _ in range(gens):
        axis = rng.randrange(config.dim)
        op = og.op_compose(op, rng.randrange(op.arity), og.op_generator(config, axis))
    return op


def random_forest(config, rng, coords, gens):
    split = [0] * coords
    for _ in range(gens):
        split[rng.randrange(coords)] += 1
    return tuple(random_operation(config, rng, g) for g in split)


def random_arrow(config, rng, coords=1, gens=3):
    forest = random_forest(config, rng, coords, gens)
    imgs = list(range(sum(op.arity for op in forest)))
    if config.flavor == og.SYMMETRIC:
        rng.shuffle(imgs)
    return og.Arrow(config, og.Permutation(tuple(imgs)), forest)


def arrow_pool(config, seed, count=60):
    """Random arrows into base words of lengths 1 and 2."""
    rng = random.Random(seed)
    return [
        random_arrow(config, rng, coords=1 + i % 2, gens=rng.randrange(4))
        for i in range(count)
    ]


def random_span(config, rng, coords=1, max_gens=4):
    """A random group element; equal generator counts keep the legs composable."""
    gens = rng.randrange(max_gens + 1)
    return og.Span(
        random_arrow(config, rng, coords, gens),
        random_arrow(config, rng, coords, gens),
    )


def all_arrows(config, coords, max_gens):
    """Every arrow out of the length-`coords` object with at most `max_gens`
    generators in its forest (all input permutations in the symmetric flavor)."""
    for forest in og.forests_up_to(config, coords, max_gens):
        n = sum(op.arity for op in forest)
        if config.flavor == og.SYMMETRIC:
            perms = itertools.permutations(range(n))
        else:
            perms = (tuple(range(n)),)
        for imgs in perms:
            yield og.Arrow(config, og.Permutation(imgs), forest)


def all_marked(config, coords, max_gens):
    for arrow in all_arrows(config, coords, max_gens):
        for marking in og.partial_markings(config, arrow.domain_len):
            yield og.MarkedArrow(arrow, marking)


def identity_multiballs(config, coords, max_gens):
    """Every multiball over `coords` base coordinates within the generator
    budget.  A class absorbs its arrow's permutation into the marking, so
    identity-permutation arrows reach them all without enumerating the
    permutations."""
    for forest in og.forests_up_to(config, coords, max_gens):
        arrow = og.Arrow.from_forest(config, forest)
        for marking in og.partial_markings(config, arrow.domain_len):
            if marking.symbol_count == 1:
                yield og.SemiPartitionClass(og.MarkedArrow(arrow, marking))


def arrow_depth(arrow):
    """The finest per-axis subdivision exponent appearing in the footprint."""
    return max(max(cell.exps) for _, cell in og.realize(arrow))


def _atoms(cell, base, resolution):
    """Grid atoms of side base**-resolution covering the cell, as index tuples."""
    axes = [
        range(off * base ** (resolution - exp), (off + 1) * base ** (resolution - exp))
        for exp, off in zip(cell.exps, cell.offs)
    ]
    return itertools.product(*axes)


def atom_symbols(marked, resolution):
    """Map (codomain coordinate, grid atom) to the symbol marking that region."""
    base = marked.arrow.config.base
    table = {}
    for (coord, cell), symbol in zip(og.realize(marked.arrow), marked.marking.symbols):
        for atom in _atoms(cell, base, resolution):
            table[(coord, atom)] = symbol
    return table


def oracle_ma_subset(p, q):
    """Geometric re-derivation of the marked-arrow preorder: each marked
    region of `p` must sit inside a single marked region of `q`."""
    resolution = max(arrow_depth(p.arrow), arrow_depth(q.arrow))
    table_p = atom_symbols(p, resolution)
    table_q = atom_symbols(q, resolution)
    for symbol in set(p.marking.symbols) - {None}:
        targets = {table_q[a] for a, s in table_p.items() if s == symbol}
        if len(targets) != 1 or None in targets:
            return False
    return True


def all_boxes(config, max_exp):
    """Every standard box whose per-axis exponents are at most `max_exp`."""
    per_axis = [
        (e, o) for e in range(max_exp + 1) for o in range(config.base**e)
    ]
    for combo in itertools.product(per_axis, repeat=config.dim):
        yield og.Box(tuple(e for e, _ in combo), tuple(o for _, o in combo))


def oracle_is_ball(B):
    """Search re-derivation of ball recognition: B is a ball iff it equals
    ball_at(...) for some standard box in the marked coordinate."""
    rep = B.rep
    pieces = [
        (coord, cell)
        for (coord, cell), s in zip(og.realize(rep.arrow), rep.marking.symbols)
        if s is not None
    ]
    if len({coord for coord, _ in pieces}) != 1:
        return False
    coord = pieces[0][0]
    config = rep.arrow.config
    max_exp = max(max(cell.exps) for _, cell in pieces)
    return any(
        og.sp_class_eq(B, og.ball_at(config, rep.arrow.codomain_len, coord, box))
        for box in all_boxes(config, max_exp)
    )


def is_transitive(bitrows):
    """Transitivity of a relation given as per-row reachability bitmasks."""
    for i, row in enumerate(bitrows):
        rest, j = row, 0
        while rest:
            if rest & 1 and (bitrows[j] | row) != row:
                return False
            rest >>= 1
            j += 1
    return True


def glued_square_fill(a1, a2):
    """Reference square filling built the long way: each leg's fills are
    glued onto it with a full ``compose``, and the filling's permutation is
    the inverse of the glued composite's."""
    blocks = [og.op_common_refinement(op1, op2)[1:3] for op1, op2 in zip(a1.forest, a2.forest)]

    def filling(a, side):
        starts = block_starts([op.arity for op in a.forest])
        fills = []
        for i in range(a.domain_len):
            j, t = locate_block(starts, a.perm(i))
            fills.append(blocks[j][side][t])
        glued = og.compose(og.Arrow.from_forest(a.config, fills), a)
        return og.Arrow(a.config, glued.perm.inverse(), tuple(fills))

    return filling(a1, 0), filling(a2, 1)


def reference_validate(config, cells):
    """Reference validation of a cell sequence, in the order the kernel
    once ran every check: per-cell dimension and range, total volume,
    pairwise overlap, left-to-right order (trees), then the recursive
    k-fold split (trees) or midpoint cuts (cubes), which on a genuine
    partition needs no leaf or empty-half test.  Returns the cells or
    raises the kernel's error, message included."""
    base, dim = config.base, config.dim
    if not cells:
        raise og.NotPartitionError("an operation needs at least one cell")
    for c in cells:
        if c.dim != dim:
            raise og.NotPartitionError(f"cell {c} has dimension {c.dim}, expected {dim}")
        if not c.in_range(base):
            raise og.NotPartitionError(f"cell {c} lies outside the unit cube")
    if sum(volume(c, base) for c in cells) != 1:
        raise og.NotPartitionError("cells do not have total volume 1")
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            if a.meet(b, base) is not None:
                raise og.NotPartitionError(f"cells {a} and {b} overlap")
    if config.kind == og.KARY_TREE:
        if list(cells) != sorted(cells, key=lambda c: sort_key(c, base)):
            raise og.NotPartitionError("tree cells must be listed left to right")
        _reference_kary(cells, og.Box.whole(1), base)
    else:
        _reference_guillotine(cells, og.Box.whole(dim), dim)
    return cells


def _reference_kary(cells, box, k):
    if len(cells) == 1:
        if cells[0] != box:
            raise og.NotPartitionError(f"stray cell {cells[0]} does not match its branch")
        return
    groups = [[] for _ in range(k)]
    for c in cells:
        if c.exps[0] <= box.exps[0]:
            raise og.NotPartitionError(f"cell {c} does not refine the k-fold split")
        groups[c.offs[0] // k ** (c.exps[0] - box.exps[0] - 1) % k].append(c)
    for digit, group in enumerate(groups):
        if not group:
            raise og.NotPartitionError("a branch of the k-fold split is uncovered")
        _reference_kary(group, box.child(0, digit, k), k)


def _reference_guillotine(cells, box, dim):
    if len(cells) <= 1:
        return
    for axis in range(dim):
        if all(c.exps[axis] > box.exps[axis] for c in cells):
            for digit in (0, 1):
                half = [
                    c for c in cells
                    if c.offs[axis] >> (c.exps[axis] - box.exps[axis] - 1) & 1 == digit
                ]
                _reference_guillotine(half, box.child(axis, digit, 2), dim)
            return
    raise og.NotGuillotineError("no axis midplane is free of crossing cells")


def validation_outcome(validate, config, cells):
    """The accepted cells, or the type and message of the refusal."""
    try:
        return tuple(validate(config, cells))
    except og.OperadError as exc:
        return type(exc), str(exc)


def perturbed_patterns(config, rng, count):
    """Cell sequences near genuine operations: shuffled, one cell dropped,
    one cell duplicated, the whole box inserted, one cell moved out of
    range, one cell moved within range (volume kept), and random standard
    cells."""
    whole = og.Box.whole(config.dim)
    pool = og.standard_cells(config, 2)
    for _ in range(count):
        cells = list(random_operation(config, rng, rng.randrange(7)).cells)
        kind = rng.randrange(8)
        if kind == 1:
            rng.shuffle(cells)
        elif kind == 2 and len(cells) > 1:
            del cells[rng.randrange(len(cells))]
        elif kind == 3:
            cells.insert(rng.randrange(len(cells) + 1), rng.choice(cells))
        elif kind == 4:
            cells.insert(rng.randrange(len(cells) + 1), whole)
        elif kind in (5, 6):
            i = rng.randrange(len(cells))
            c, axis = cells[i], rng.randrange(config.dim)
            offs = list(c.offs)
            width = config.base ** c.exps[axis]
            offs[axis] = width if kind == 5 else rng.randrange(width)
            cells[i] = og.Box(c.exps, tuple(offs))
        elif kind == 7:
            cells = rng.sample(pool, rng.randint(1, 5))
        yield tuple(cells)


def reference_common_refinement(p, q):
    """Reference common refinement on ``Box`` values: meet every cell of
    ``p`` with every cell of ``q``, sort the meets by ``sort_key``, and
    read off each side's relative operations and per-cell ranks."""
    config = p.config
    base = config.base
    met, parents = [], []
    for i, c1 in enumerate(p.cells):
        for j, c2 in enumerate(q.cells):
            m = c1.meet(c2, base)
            if m is not None:
                met.append(m)
                parents.append((i, j))
    order = sorted(range(len(met)), key=lambda k: sort_key(met[k], base))
    r = og.Operation(config, tuple(met[k] for k in order))
    r_cells = r.cells

    def relative(op, side):
        subs = [[] for _ in range(op.arity)]
        for rank, k in enumerate(order):
            subs[parents[k][side]].append(rank)
        phi = tuple(
            og.Operation(config, tuple(r_cells[rank].rescale_from(c, base) for rank in sub))
            for c, sub in zip(op.cells, subs)
        )
        return phi, tuple(tuple(sub) for sub in subs)

    phi_p, ranks_p = relative(p, 0)
    phi_q, ranks_q = relative(q, 1)
    return r, phi_p, phi_q, ranks_p, ranks_q


def reference_format_tree(op):
    """Reference tree literal, built recursively from ``Box`` values: a cell
    that fills its branch is ".", any other branch the k children's
    literals in parentheses."""
    k = op.config.size

    def rec(cells, box):
        if len(cells) == 1 and cells[0] == box:
            return "."
        groups = [[] for _ in range(k)]
        for c in cells:
            groups[c.offs[0] // k ** (c.exps[0] - box.exps[0] - 1) % k].append(c)
        return "(" + " ".join(rec(g, box.child(0, d, k)) for d, g in enumerate(groups)) + ")"

    return rec(list(op.cells), og.Box.whole(1))


def _reference_int(digits, what):
    try:
        return int(digits)
    except ValueError:
        raise og.ParseError(f"bad {what}: {digits[:20]!r}") from None


def _reference_check_nesting(tokens, opener, closer):
    """Refuse literals nested deeper than the cap before any descent."""
    depth = 0
    for tok in tokens:
        if tok == opener:
            depth += 1
            if depth > og.MAX_CELL_DEPTH:
                raise og.ParseError(f"literal nested more than {og.MAX_CELL_DEPTH} levels deep")
        elif tok == closer:
            depth -= 1


def _reference_token_reader(tokens, text):
    pos = 0

    def next_token():
        nonlocal pos
        if pos >= len(tokens):
            raise og.ParseError(f"truncated literal: {text!r}")
        pos += 1
        return tokens[pos - 1]

    def done():
        if pos != len(tokens):
            raise og.ParseError(f"trailing tokens in literal: {text!r}")

    return next_token, done


def reference_parse_tree_literal(text, config):
    """The tree reader the kernel once used: a character check, a nesting
    pre-scan, then a recursive descent over the tokens."""
    if re.sub(r"[().\s]", "", text):
        raise og.ParseError(f"bad tree literal: {text!r}")
    tokens = re.findall(r"[().]", text)
    _reference_check_nesting(tokens, "(", ")")
    next_token, done = _reference_token_reader(tokens, text)
    k = config.size

    def rec(box):
        tok = next_token()
        if tok == ".":
            return [box]
        if tok == "(":
            cells = []
            for digit in range(k):
                cells.extend(rec(box.child(0, digit, k)))
            if next_token() != ")":
                raise og.ParseError(f"expected {k} children per node in {text!r}")
            return cells
        raise og.ParseError(f"unexpected token {tok!r} in tree literal")

    cells = rec(og.Box.whole(1))
    done()
    return og.Operation(config, tuple(cells))


def reference_parse_cut_tree(text):
    """The cut-tree reader the kernel once used, as nested tuples: a leaf is
    None, a node (axis, low, high); the axis is not range-checked here."""
    tokens = re.findall(r"\[|\]|\.|\d+", text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise og.ParseError(f"bad cut tree literal: {text!r}")
    _reference_check_nesting(tokens, "[", "]")
    next_token, done = _reference_token_reader(tokens, text)

    def rec():
        tok = next_token()
        if tok == ".":
            return None
        if tok == "[":
            axis_tok = next_token()
            if not axis_tok.isdigit():
                raise og.ParseError(f"expected cut axis, got {axis_tok!r}")
            low = rec()
            high = rec()
            if next_token() != "]":
                raise og.ParseError(f"unbalanced brackets in {text!r}")
            return _reference_int(axis_tok, "cut axis"), low, high
        raise og.ParseError(f"unexpected token {tok!r} in cut tree literal")

    tree = rec()
    done()
    return tree


def reference_cut_tree_operation(tree, config):
    """The canonical cube operation a cut tree cuts, after a check of every
    axis."""
    cells = []

    def rec(node, box):
        if node is None:
            cells.append(box)
            return
        axis, low, high = node
        if not 0 <= axis < config.dim:
            raise og.ParseError(f"cut axis {axis} out of range for {config}")
        rec(low, box.child(axis, 0, 2))
        rec(high, box.child(axis, 1, 2))

    rec(tree, og.Box.whole(config.dim))
    return og.Operation(config, tuple(sorted(cells, key=lambda c: sort_key(c, 2))))


def reference_parse_operation(text, config):
    """Reference operation reader: the tree reader for trees, and for cubes
    the identity ".", a cut tree or a pattern."""
    t = text.strip()
    if config.kind == og.KARY_TREE:
        return reference_parse_tree_literal(t, config)
    if t == ".":
        return og.op_identity(config)
    if t.startswith("["):
        return reference_cut_tree_operation(reference_parse_cut_tree(t), config)
    if t.startswith("{"):
        return og.backend._parse_pattern(t, config)
    raise og.ParseError(f"bad operation literal: {text!r}")


def reference_compose(a, b):
    """Reference composite by the general path alone: push ``b``'s
    permutation across ``a``'s forest, then graft each operation of ``b``
    onto its run of the pushed forest."""
    tau_hat, forest_hat = og.push_perm(a.forest, b.perm)
    starts = block_starts([len(op.cells) for op in b.forest])
    grafted = tuple(
        og.op_subst(op, forest_hat[starts[u] : starts[u + 1]])
        for u, op in enumerate(b.forest)
    )
    return og.Arrow(a.config, a.perm * tau_hat, grafted)


def reference_n_condition(P, y, n):
    """Reference n-condition: build each symbol's submultiball and read its
    object class."""
    hits = sum(
        1
        for B in og.submultiballs(P)
        if og.object_equivalent(P.config, og.object_class(B), y)
    )
    return hits >= n


def random_marking(config, rng, length):
    """A random partial marking; in the planar flavor each symbol is one run."""
    if config.flavor == og.PLANAR:
        symbols, fresh, current = [], 0, None
        for _ in range(length):
            if not symbols or rng.random() < 0.5:
                current = None if rng.random() < 0.3 else fresh
                fresh += current is not None
            symbols.append(current)
        return og.Marking(tuple(symbols))
    return og.Marking(tuple(rng.choice((None, 0, 1, 2)) for _ in range(length)))


def reference_input_slots(arrow):
    """Reference input-slot lookup: one bisection into the forest's block
    starts per domain coordinate."""
    starts = block_starts([len(op.cells) for op in arrow.forest])
    return [locate_block(starts, pos) for pos in arrow.perm.imgs]


def act_through_fill(g, S):
    """Reference action by the general path alone: fill the numerator
    against the class's arrow, compose onto the denominator and pull the
    marking back through the filling."""
    if g.config != S.config or g.base_len != S.base_len:
        raise og.BaseMismatchError("span and class live over different bases")
    b1, b2 = og.square_fill(g.num, S.rep.arrow)
    return og.SemiPartitionClass(
        og.MarkedArrow(og.compose(b1, g.den), og.pull_back(b2, S.rep.marking))
    )


def reference_check_filtered(T):
    """Reference filteredness rows: ``refine_to_n`` once per pair."""
    rows = []
    shown = [str(P.rep) for P in T.elements]
    for (i, P), (j, Q) in itertools.combinations(enumerate(T.elements), 2):
        R = og.refine_to_n(P, Q, T.y, T.n)
        ok = og.class_subset(R, P) and og.class_subset(R, Q) and og.n_condition(R, T.y, T.n)
        rows.append({"p": shown[i], "q": shown[j], "upper_bound": str(R.rep), "ok": ok})
    return tuple(rows)


def reference_pull_back(arrow, comarking):
    """Reference pull-back: the output symbol of each input slot, looked up
    through ``reference_input_slots``, relabeled by ``Marking``."""
    if len(comarking) != arrow.codomain_len:
        raise og.LengthError(
            f"comarking of length {len(comarking)} on codomain of length "
            f"{arrow.codomain_len}"
        )
    symbols = comarking.symbols
    return og.Marking(tuple(symbols[j] for j, _ in reference_input_slots(arrow)))


def reference_marking_subset(m1, m2):
    """Reference containment: one support scan per symbol of m1."""
    if len(m1) != len(m2):
        raise og.LengthError(f"markings of lengths {len(m1)} and {len(m2)}")
    for symbol in range(m1.symbol_count):
        images = {m2.symbols[i] for i in m1.support(symbol)}
        if len(images) != 1 or None in images:
            return False
    return True


def reference_normalize(ma):
    """Reference normalization of a class representative: rebuild the arrow
    with the identity permutation, read the marking through the inverse
    permutation, and check the marked arrow again."""
    if ma.arrow.perm.is_identity():
        return ma
    sigma_inv = ma.arrow.perm.inverse()
    arrow = og.Arrow(ma.config, og.Permutation.identity(ma.arrow.domain_len), ma.arrow.forest)
    marking = og.Marking(tuple(ma.marking.symbols[sigma_inv(i)] for i in range(len(ma.marking))))
    return og.MarkedArrow(arrow, marking)


def reference_sp_class_eq(P, Q):
    """Reference class equality: ``ma_subset`` both ways."""
    return og.ma_subset(P.rep, Q.rep) and og.ma_subset(Q.rep, P.rep)


def reference_pingpong_pools(config, depth):
    """Reference ping-pong pools: every ball of the pool that
    ``class_subset`` puts in each of the two balls."""
    B1, B2 = og.pingpong_balls(config)
    pool = tuple(og.all_balls(config, 1, depth))
    return [b for b in pool if og.class_subset(b, B1)], [b for b in pool if og.class_subset(b, B2)]


# input permutations tau sampled per forest by the reference sweeps, beside
# the identity, and the seed they are drawn from
SWEEP_SAMPLES = 2
SWEEP_SEED = 0


def _sampled_inputs(rng, degree):
    """The identity, then SWEEP_SAMPLES random input permutations."""
    perms = [og.Permutation.identity(degree)]
    for _ in range(SWEEP_SAMPLES):
        imgs = list(range(degree))
        rng.shuffle(imgs)
        perms.append(og.Permutation(tuple(imgs)))
    return perms


def _reference_perm_sweep(config, max_perm_size, max_depth, fixed, link):
    """The rows of a permutation sweep, checking every forest under the
    identity and sampled input permutations tau: a row fails with the first
    alpha = (tau, forest) that sigma fixes.  The kernel checks the identity
    alone, so equal rows show that tau does not change a verdict."""
    rng = random.Random(SWEEP_SEED)
    rows = []
    for m in range(2, max_perm_size + 1):
        sigmas = [og.Permutation(p) for p in itertools.permutations(range(m)) if p != tuple(range(m))]
        for forest in og.forests_up_to(config, m, max_depth):
            base_arrow = og.Arrow.from_forest(config, forest)
            alphas = [og.Arrow(config, tau, forest) for tau in _sampled_inputs(rng, base_arrow.domain_len)]
            for sigma in sigmas:
                bad = next((str(a) for a in alphas if fixed(a, sigma)), None)
                rows.append(
                    {"instance": f"{sigma} {link} {base_arrow}", "ok": bad is None, "witness": bad or ""}
                )
    return tuple(rows)


def reference_sigma_span_rows(config, max_perm_size, max_depth):
    """Reference sigma-span rows: the sweep of ``sigma_span_report`` with one
    public ``sigma_span_check`` call per sampled arrow and sigma."""
    return _reference_perm_sweep(config, max_perm_size, max_depth, og.sigma_span_check, "on")


def reference_free_action_rows(config, max_perm_size, max_depth):
    """Reference free-action rows: the sweep of ``free_action_check``, each
    sampled arrow composed with sigma's permutation arrow and compared."""

    def fixed(alpha, sigma):
        return og.arrow_eq(og.compose(alpha, og.perm_arrow(config, sigma)), alpha)

    return _reference_perm_sweep(config, max_perm_size, max_depth, fixed, "after")


def reference_class_key(P):
    """Reference class key: the trie of uniformly labelled cells under the
    old split rule, k-ary for trees and, for cubes, halve the axis of
    smallest exponent (the lowest on ties).  The split axis is a function
    of the box, so it is not recorded; the trie has 2^(d+1) - 1 nodes for
    a ball cut once along the last axis, so use it for d <= 3 only."""
    base, dim = P.config.base, P.config.dim
    items = [[] for _ in range(P.base_len)]
    for (j, cell), s in zip(og.realize(P.rep.arrow), P.rep.marking.symbols):
        items[j].append((cell, s))
    names = {}

    def node(box, here):
        labels = {s for _, s in here}
        if len(labels) == 1:
            s = labels.pop()
            return None if s is None else names.setdefault(s, len(names))
        axis = min(range(dim), key=lambda i: box.exps[i])
        e = box.exps[axis]
        groups = [[] for _ in range(base)]
        for cell, s in here:
            ce = cell.exps[axis]
            if ce <= e:
                for group in groups:
                    group.append((cell, s))
            else:
                groups[cell.offs[axis] // base ** (ce - e - 1) % base].append((cell, s))
        return tuple(node(box.child(axis, digit, base), group) for digit, group in enumerate(groups))

    whole = og.Box.whole(dim)
    return tuple(node(whole, here) for here in items)
