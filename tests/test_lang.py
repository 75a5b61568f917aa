import pytest

from contensor.compiler import ValidityError, compile_program
from contensor.lang import (
    EBin, EDif, LangError, SAssign, SFor, affine_terms, parse, to_source,
    tokenize, validate,
)
from contensor.storage import build_tensor, tensor_1d

DOT_INTEGRAL = """\
for i = -inf:inf
  s += x[i] * y[i] * d(i)
end
"""

DOT_SUM = """\
for i = -inf:inf
  s += x[i] * y[i]
end
"""

RADIUS_COUNT = """\
for dx = -inf:inf
  for dy = -inf:inf
    if dx * dx + dy * dy <= 1.7 * 1.7
      count += A[2.2 + dx, 3.9 + dy]
    end
  end
end
"""

MASKED_CONV = """\
for i = -inf:inf
  for j = -inf:inf
    Z[i] += M[i] * A[i + j] * B[j] * d(j)
  end
end
"""

BOX_SEARCH = """\
for x = -inf:inf
  for y = -inf:inf
    for id = 0:9
      Out[id] |= Box[x, y] && Points[x, y, id]
    end
  end
end
"""


def codes(diags):
    return sorted({d.code for d in diags})


def test_tokenize_positions_and_comments():
    toks = tokenize("for i = 0:3  # loop\n  s += 1\nend\n")
    texts = [t.text for t in toks if t.kind not in ("nl", "eof")]
    assert texts == ["for", "i", "=", "0", ":", "3", "s", "+=", "1", "end"]
    assert toks[0].line == 1 and toks[0].col == 1
    assert all(t.text != "# loop" for t in toks)


def test_tokenize_compound_ops():
    toks = tokenize("a max= b min= c |= d2\n")
    assert [t.text for t in toks[:7]] == ["a", "max=", "b", "min=", "c", "|=", "d2"]


def test_tokenize_rejects_garbage():
    with pytest.raises(LangError):
        tokenize("s += $x\n")


def test_parse_dot_integral_shape():
    p = parse(DOT_INTEGRAL)
    (loop,) = p.body
    assert isinstance(loop, SFor) and loop.continuous
    assert loop.lo == float("-inf") and loop.hi == float("inf")
    (asn,) = loop.body
    assert isinstance(asn, SAssign) and asn.op == "+=" and asn.target == "s"
    assert asn.indices == ()
    m = asn.rhs
    assert isinstance(m, EBin) and m.op == "*"
    assert isinstance(m.b, EDif) and m.b.index == "i"


def test_parse_discrete_vs_continuous_bounds():
    p = parse("for k = 0:22\n  s += A[k]\nend\n")
    assert not p.body[0].continuous
    p = parse("for t = 0.0:10.0\n  s max= A[t]\nend\n")
    assert p.body[0].continuous
    with pytest.raises(LangError, match="mix"):
        parse("for t = 0:10.0\n  s += A[t]\nend\n")


def test_parse_errors():
    with pytest.raises(LangError, match="end"):
        parse("for i = 0:1\n  s += 1\n")
    with pytest.raises(LangError, match="assignment"):
        parse("s [3]\n")
    with pytest.raises(LangError, match="one index"):
        parse("s += d(i + 1)\n")
    with pytest.raises(LangError, match="reserved"):
        parse("for end = 0:1\n  s += 1\nend\n")
    with pytest.raises(LangError, match="unexpected"):
        parse("s += 1 2\n")


def test_roundtrip_is_stable():
    for src in (DOT_INTEGRAL, DOT_SUM, RADIUS_COUNT, MASKED_CONV, BOX_SEARCH):
        p = parse(src)
        printed = to_source(p)
        assert parse(printed) == p
        assert to_source(parse(printed)) == printed


def test_printer_precedence():
    p = parse("s = (a + b) * c - -e\n")
    assert to_source(p) == "s = (a + b) * c - -e\n"
    p = parse("s = a + b * c\n")
    assert to_source(p) == "s = a + b * c\n"


def test_affine_terms():
    i = lambda s: parse(f"s += A[{s}]\n").body[0].rhs.indices[0]
    assert affine_terms(i("2.2 + dx")) == (2.2, ("dx",))
    assert affine_terms(i("i + j")) == (0.0, ("i", "j"))
    assert affine_terms(i("7")) == (7.0, ())
    assert affine_terms(i("i * i")) is None
    assert affine_terms(i("2 * i")) is None
    assert affine_terms(i("i - j")) is None
    assert affine_terms(i("i - 1.1")) == affine_terms(i("i + -1.1")) == (-1.1, ("i",))
    assert affine_terms(i("-0.5 + i - 2")) == (-2.5, ("i",))
    assert affine_terms(i("i - -1.1")) is None
    assert affine_terms(i("i + i")) is None


# -- validity ---------------------------------------------------------------


def test_valid_corpus_unbound():
    for src in (DOT_INTEGRAL, DOT_SUM, RADIUS_COUNT, MASKED_CONV, BOX_SEARCH):
        assert validate(parse(src)) == []


def test_valid_with_matching_kinds():
    assert validate(
        parse(DOT_INTEGRAL), {"x": ("interval",), "y": ("interval",)}
    ) == []
    assert validate(
        parse(BOX_SEARCH),
        {"Box": ("interval", "interval"), "Points": ("interval", "interval", "dense")},
    ) == []


def test_reject_nonaffine_index():
    d = validate(parse("for i = -inf:inf\n  s max= A[i * i]\nend\n"))
    assert codes(d) == ["R-INV"]
    d = validate(parse("for i = -inf:inf\n  s max= A[sin(i)]\nend\n"))
    assert "R-INV" in codes(d)


def compile_diags(src, binds):
    """The diagnostics compile_program rejects a program with; whether
    stored points pin an index is decided against storage, in lowering."""
    with pytest.raises(ValidityError) as e:
        compile_program(parse(src), binds)
    return e.value.diags


def test_reject_scalar_use_of_continuum():
    d = compile_diags("for i = 0.0:10.0\n  A[i] += i\nend\n", {})
    assert codes(d) == ["R-PIN"]


def test_reject_sum_over_interval_kind():
    def binds(keys):
        return {"x": tensor_1d("x", keys), "y": tensor_1d("y", keys)}

    d = compile_diags(DOT_SUM, binds([((0.0, 1.0), 2.0)]))
    assert codes(d) == ["R-SUM"]
    # pinpoint storage makes the same program fine
    compile_program(parse(DOT_SUM), binds([(0.5, 2.0)]))


def test_reject_plain_assign_collapse():
    x = tensor_1d("x", [((0.0, 1.0), 2.0)])
    d = compile_diags("for i = -inf:inf\n  s = x[i]\nend\n", {"x": x})
    assert codes(d) == ["R-SUM"]


def test_reject_dif_misuse():
    assert codes(validate(parse(
        "for k = 0:3\n  s += A[k] * d(k)\nend\n"))) == ["R-SUM"]
    assert codes(validate(parse(
        "for i = -inf:inf\n  Z[i] += x[i] * d(i)\nend\n"), {"x": ("interval",)})) == ["R-SUM"]
    assert codes(validate(parse(
        "for i = -inf:inf\n  s += x[i] * d(i) * d(i)\nend\n"), {"x": ("interval",)})) == ["R-SUM"]
    assert codes(validate(parse(
        "for i = -inf:inf\n  s = x[i] * d(i)\nend\n"), {"x": ("interval",)})) == ["R-SUM"]


def test_reject_form_errors():
    d = validate(parse("s += 1\nt += 2\n"))
    assert codes(d) == ["R-FORM"]
    d = validate(parse("s += q\n"))
    assert codes(d) == ["R-FORM"]
    d = validate(parse("for i = -inf:inf\n  A[i] |= A[i]\nend\n"))
    assert codes(d) == ["R-FORM"]
    d = validate(parse("for i = -inf:inf\n  for i = -inf:inf\n    s |= x[i]\n  end\nend\n"))
    assert "R-FORM" in codes(d)


def test_reject_arity_mismatch():
    d = validate(parse("for i = -inf:inf\n  s |= A[i] && A[i, i]\nend\n"))
    assert "R-ARITY" in codes(d)
    d = validate(
        parse("for i = -inf:inf\n  s |= A[i]\nend\n"), {"A": ("interval", "dense")}
    )
    assert "R-ARITY" in codes(d)
    d = validate(
        parse("for k = 0:5\n  s += A[k]\nend\n"), {"A": ("interval",)}
    )
    assert "R-ARITY" in codes(d)
    d = validate(
        parse("for t = 0.0:1.0\n  s |= A[t]\nend\n"), {"A": ("dense",)}
    )
    assert "R-ARITY" in codes(d)


def test_reject_rank_order_conflict():
    src = "for i = -inf:inf\n  for j = -inf:inf\n    s |= A[j, i]\nend\nend\n"
    A = build_tensor("A", [("interval",), ("interval",)], [((0.0, 1.0), [((0.0, 1.0), True)])],
                     fill=False)
    assert "R-PIN" in codes(compile_diags(src, {"A": A}))


def test_trilinear_style_pinning():
    src = (
        "for t = 0:4\n"
        " for x = -inf:inf\n"
        "  for y = -inf:inf\n"
        "   for c = 0:2\n"
        "    for i = -inf:inf\n"
        "     for j = -inf:inf\n"
        "      Out[t, c] += Sample[t, x, y] * Grid[x + i, y + j, c] * d(i) * d(j)\n"
        "     end\n"
        "    end\n"
        "   end\n"
        "  end\n"
        " end\n"
        "end\n"
    )
    kinds = {
        "Sample": ("dense", "pinpoint", "pinpoint"),
        "Grid": ("interval", "interval", "dense"),
        "Out": ("dense", "dense"),
    }
    assert validate(parse(src), kinds) == []


def test_diag_carries_position():
    d = compile_diags("for i = 0.0:10.0\n  A[i] += i\nend\n", {})
    assert d[0].line == 2
    assert str(d[0]).startswith("R-PIN 2:")
