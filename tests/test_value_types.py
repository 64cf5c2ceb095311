"""The package's immutable value types, one parametrized case per class:
constructor keywords and defaults, repr, == and hash over the compared
fields, immutability, pickle and deepcopy, and validation messages."""

import copy
import pickle

import pytest

from handlecoset import (CaseLabel, ClassifierContext, DoubleCosetId,
                         EnumerationLimits, GeneratorSymbol, GroupPresentation,
                         HandleInvariant, PermutationAssignment,
                         SurfaceKnotInput, UnorderedPair, ValidationCheck,
                         ValidationReport, Word, dc_all, enumerate_classes,
                         handle_invariant, parse_input, parse_word)

S3 = "group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\nP: a\norientable: true"
D8_CASE3 = ("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
            "P: r^2 , s\nP+: r^2\nn: s\norientable: false")

A_B = "generators=(GeneratorSymbol(name='a'), GeneratorSymbol(name='b'))"
S3_INPUT = (
    f"SurfaceKnotInput(presentation=GroupPresentation({A_B}, relators=("
    "Word(letters=((0, 1), (0, 1))), Word(letters=((1, 1), (1, 1), (1, 1))), "
    "Word(letters=((0, 1), (1, 1), (0, 1), (1, 1))))), "
    "p_generators=(Word(letters=((0, 1),)),), p_plus_generators=None, "
    "n_word=None, surface_orientable=True, label='s3')")
VACUOUS = ", ".join(
    f"ValidationCheck(name='{name}', status='pass', "
    "detail='vacuous: surface is orientable')"
    for name in ("p_plus_in_p", "n_in_p", "n_vs_p_plus", "twist_normalizes_p_plus",
                 "n_squared_in_p_plus", "p_plus_index_in_p"))
D1 = "DoubleCosetId(canonical=1, orbit_size=1)"
D2 = "DoubleCosetId(canonical=2, orbit_size=2)"


def _s3_context():
    return ClassifierContext.build(parse_input(S3, label="s3"))


def _s3_ids():
    ctx = _s3_context()
    return dc_all(ctx.p_table, ctx.input.p_generators)


def _d8_input():
    d8 = parse_input(D8_CASE3)
    return SurfaceKnotInput(presentation=d8.presentation, p_generators=d8.p_generators,
                            p_plus_generators=d8.p_plus_generators, n_word=d8.n_word,
                            surface_orientable=False)


# (class, sample, constructor fields, fields hidden from the constructor,
# the value hash(sample) equals, repr captured before these classes
# stopped being dataclasses, [(call on the sample that must fail, its
# message)])
CASES = [
    (GeneratorSymbol, lambda: GeneratorSymbol(name="a"), ("name",), (), lambda s: (s.name,),
     "GeneratorSymbol(name='a')",
     [(lambda s: GeneratorSymbol("1a"), "invalid generator name: '1a'")]),
    (Word, lambda: Word(letters=((0, 1), (1, -1))), ("letters",), ("columns",),
     lambda s: (s.letters,),
     "Word(letters=((0, 1), (1, -1)))",
     [(lambda s: Word(((0, 1), (0, -1))), "word is not freely reduced"),
      (lambda s: Word(((0, 1), (0, -1), (2, 0))), "bad letter (2, 0)"),
      (lambda s: Word(((-1, 1),)), "bad letter (-1, 1)")]),
    (GroupPresentation,
     lambda: GroupPresentation(generators=(GeneratorSymbol("a"), GeneratorSymbol("b"))),
     ("generators", "relators"), (), lambda s: (s.generators, s.relators),
     f"GroupPresentation({A_B}, relators=())",
     [(lambda s: GroupPresentation(()), "a presentation needs at least one generator"),
      (lambda s: GroupPresentation(s.generators * 2), "duplicate generator names: a, b"),
      (lambda s: GroupPresentation(s.generators, (Word(),)), "relators must be nonempty"),
      (lambda s: GroupPresentation(s.generators, (Word(((2, 1),)),)),
       "relator uses a generator index outside the presentation")]),
    (EnumerationLimits, lambda: EnumerationLimits(max_live_cosets=400),
     ("max_live_cosets", "max_total_defined"), (),
     lambda s: (s.max_live_cosets, s.max_total_defined),
     "EnumerationLimits(max_live_cosets=400, max_total_defined=10000000)",
     [(lambda s: EnumerationLimits(0), "limits must be positive"),
      (lambda s: EnumerationLimits(10, -1), "limits must be positive"),
      (lambda s: EnumerationLimits(2.5, 5), "limits must be integers, got 2.5"),
      (lambda s: EnumerationLimits(True, 5), "limits must be integers, got True"),
      (lambda s: EnumerationLimits(10, 5), "max_total_defined must be >= max_live_cosets")]),
    (DoubleCosetId, lambda: _s3_ids()[1], ("table", "canonical"), ("orbit_size",),
     lambda s: s.canonical, D2,
     [(lambda s: DoubleCosetId(s.table, 3), "coset 3 is not canonical in its table")]),
    (UnorderedPair, lambda: UnorderedPair(*reversed(_s3_ids())), ("first", "second"), (),
     lambda s: (s.first, s.second), f"{{{D1}, {D2}}}",
     [(lambda s: UnorderedPair(s.first, s), "pair elements differ in shape: D and {D, D}")]),
    (PermutationAssignment,
     lambda: PermutationAssignment(degree=3, images=((1, 0, 2), (0, 2, 1))),
     ("degree", "images"), ("action",), lambda s: (s.degree, s.images),
     "PermutationAssignment(degree=3, images=((1, 0, 2), (0, 2, 1)))", []),
    (SurfaceKnotInput, _d8_input,
     ("presentation", "p_generators", "p_plus_generators", "n_word",
      "surface_orientable", "label"), ("cases", "_listings"),
     lambda s: (s.presentation, s.p_generators, s.p_plus_generators, s.n_word,
                s.surface_orientable, s.label),
     "SurfaceKnotInput(presentation=GroupPresentation(generators=(GeneratorSymbol("
     "name='r'), GeneratorSymbol(name='s')), relators=(Word(letters=((0, 1), (0, 1), "
     "(0, 1), (0, 1))), Word(letters=((1, 1), (1, 1))), Word(letters=((0, 1), (1, 1), "
     "(0, 1), (1, 1))))), p_generators=(Word(letters=((0, 1), (0, 1))), "
     "Word(letters=((1, 1),))), p_plus_generators=(Word(letters=((0, 1), (0, 1))),), "
     "n_word=Word(letters=((1, 1),)), surface_orientable=False, label='')",
     [(lambda s: SurfaceKnotInput(s.presentation, s.p_generators, s.p_plus_generators,
                                  s.n_word, True),
       "orientable input must not carry P+ generators"),
      (lambda s: SurfaceKnotInput(s.presentation, s.p_generators, s.p_plus_generators,
                                  None, False),
       "non-orientable input needs P+ generators and n"),
      # serialize would write "n: s", which parse_input refuses when orientable
      (lambda s: SurfaceKnotInput(s.presentation, s.p_generators, None, s.n_word, True),
       "orientable input must not carry n"),
      # "P: " and "P+: " parse as "expected a word"; the trivial subgroup is "1"
      (lambda s: SurfaceKnotInput(s.presentation, (), s.p_plus_generators,
                                  s.n_word, False),
       "P and P+ need a word each; the trivial subgroup is (Word(),)"),
      (lambda s: SurfaceKnotInput(s.presentation, s.p_generators, (), s.n_word, False),
       "P and P+ need a word each; the trivial subgroup is (Word(),)"),
      # generator 5 of two: serialize and the certificate walk raised IndexError
      (lambda s: SurfaceKnotInput(s.presentation, (Word(((5, 1),)),),
                                  s.p_plus_generators, s.n_word, False),
       "P, P+ or n uses a generator index outside the presentation"),
      (lambda s: SurfaceKnotInput(s.presentation, s.p_generators, s.p_plus_generators,
                                  Word(((0, 1), (2, -1))), False),
       "P, P+ or n uses a generator index outside the presentation")]),
    (ValidationCheck, lambda: ValidationCheck(name="n_in_p", status="pass", detail="ok"),
     ("name", "status", "detail"), (), lambda s: (s.name, s.status, s.detail),
     "ValidationCheck(name='n_in_p', status='pass', detail='ok')", []),
    (ValidationReport,
     lambda: ValidationReport(checks=(ValidationCheck("n_squared_in_p_plus", "fail", "no"),)),
     ("checks",), (), lambda s: (s.checks,),
     "ValidationReport(checks=(ValidationCheck(name='n_squared_in_p_plus', "
     "status='fail', detail='no'),))", []),
    (HandleInvariant, lambda: HandleInvariant(case=CaseLabel.CASE1, core_oriented=False,
                             value=UnorderedPair(*_s3_ids())),
     ("case", "core_oriented", "value"), ("kind",), lambda s: (s.value, s.kind),
     f"HandleInvariant(case=<CaseLabel.CASE1: 1>, core_oriented=False, "
     f"value={{{D1}, {D2}}})",
     [(lambda s: HandleInvariant(CaseLabel.CASE1, True, s.value),
       "value shape does not match kind 'oriented-core'"),
      # with no input to check the case against, only a CaseLabel passes;
      # 3 once passed as a Case-1 kind
      (lambda s: HandleInvariant(3, True, s.value), "3 is not a CaseLabel"),
      (lambda s: HandleInvariant("3", False, s.value), "'3' is not a CaseLabel"),
      (lambda s: HandleInvariant(None, False, s.value), "None is not a CaseLabel")]),
    (ClassifierContext, _s3_context, ("input", "p_table", "p_plus_table", "report"), (),
     lambda s: (s.input, s.p_table, s.p_plus_table, s.report),
     f"ClassifierContext(input={S3_INPUT}, p_table=<CosetTable index=3 on 2 generators>, "
     f"p_plus_table=None, report=ValidationReport(checks=({VACUOUS})))", []),
]
# a round trip copies the tables, and these compare their tables by identity
BY_TABLE = (DoubleCosetId, UnorderedPair, HandleInvariant, ClassifierContext)
CACHED = {ClassifierContext: "_case"}


@pytest.mark.parametrize("cls, build, init, hidden, key, text, errors", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type_contract(cls, build, init, hidden, key, text, errors):
    sample = build()
    assert type(sample) is cls
    assert repr(sample) == text
    # the constructor takes the fields by keyword, and == and hash read
    # the compared fields only
    rebuilt = cls(**{name: getattr(sample, name) for name in init})
    assert rebuilt == sample and not rebuilt != sample
    assert hash(rebuilt) == hash(sample) == hash(key(sample))
    assert sample.__eq__(object()) is NotImplemented
    for name in init + hidden + ("other",):
        with pytest.raises(AttributeError):
            setattr(sample, name, None)
        with pytest.raises(AttributeError):
            delattr(sample, name)
    assert repr(sample) == text
    if cls in CACHED:
        assert getattr(sample, CACHED[cls]) is getattr(sample, CACHED[cls])
        assert CACHED[cls] in vars(sample)
    for twin in (pickle.loads(pickle.dumps(sample)), copy.deepcopy(sample)):
        assert type(twin) is cls and repr(twin) == text
        if not isinstance(sample, BY_TABLE):
            assert twin == sample and hash(twin) == hash(sample)
        if cls is ClassifierContext:
            assert repr(enumerate_classes(twin, CaseLabel.CASE1, False)) == \
                repr(enumerate_classes(sample, CaseLabel.CASE1, False))
    for call, message in errors:
        with pytest.raises(ValueError) as caught:
            call(sample)
        assert str(caught.value) == message


def test_an_invariant_shows_its_table_view_not_the_ids_it_was_given():
    # on S3 over <a>, b's double coset {2, 3} has orbit size 2; an id of
    # coset 2 built by hand reads that size from its table, and the
    # invariant built from it keeps only the table and the key
    ctx = _s3_context()
    table = ctx.p_table
    real = handle_invariant(ctx, CaseLabel.CASE1, True,
                            parse_word("b", ctx.input.presentation))
    built = HandleInvariant(CaseLabel.CASE1, True, DoubleCosetId(table, 2))
    assert built == real and hash(built) == hash(real)
    assert built.value.orbit_size == 2
    assert repr(built) == repr(real)
    assert built.double_cosets() == real.double_cosets()
    assert [d.orbit_size for d in built.double_cosets()] == [2]
