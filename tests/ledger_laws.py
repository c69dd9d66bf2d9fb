"""The merge and serialisation laws of every :class:`repro.ledger.Ledger`.

Written once and bound per type: a test class subclasses
:class:`LedgerLaws` and sets

* ``instances`` — a hypothesis strategy of the ledger type whose draws
  can merge with each other (``match=True`` fields must agree);
* ``golden`` — an ``(instance, dict)`` pair: the dict literal is the
  exact ``to_dict()`` of the instance, compared through ``json.dumps``
  so key order and int/float types are pinned too (cache entries and
  CLI JSON depend on both).

Float fields should be drawn integer-valued: the laws are about the
merge structure, not about float addition being associative.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

#: Merge kinds under which swapping the operands changes nothing
#: (``"left"`` too, where both operands hold the same value).
_COMMUTING = ("sum", "max")


def _kinds(cls) -> dict:
    """Field name -> merge kind, in declaration order."""
    return {
        f.name: f.metadata.get("ledger", {}).get("kind", "sum")
        for f in dataclasses.fields(cls)
        if f.init
    }


def _dumps(ledger) -> str:
    return json.dumps(ledger.to_dict())


def _identity(ledger):
    """``empty()`` carrying the ledger's ``"left"`` values."""
    kinds = _kinds(type(ledger))
    left = [getattr(ledger, n) for n, k in kinds.items() if k == "left"]
    return type(ledger).empty(*left)


def _law(a, b, kind):
    """The merged ``to_dict`` value of one field, from its operands'."""
    if kind == "sum":
        if isinstance(a, list):
            return [x + y for x, y in zip(a, b)]
        return a + b
    return {
        "max": lambda: max(a, b),
        "concat": lambda: a + b,
        "latest": lambda: a if b is None else b,
        "left": lambda: a,
    }[kind]()


_examples = settings(max_examples=40, deadline=None)


class LedgerLaws:
    instances = None
    golden = None

    def __init_subclass__(cls, **kwargs):
        """Give every bound type its own ``@given`` wrappers.

        Hypothesis ties one wrapper to one executing class, so bindings
        sharing the base's wrappers would fail its
        ``differing_executors`` health check.
        """
        super().__init_subclass__(**kwargs)
        for name, law in vars(LedgerLaws).items():
            if hasattr(law, "hypothesis") and name not in vars(cls):
                inner = law.hypothesis.inner_test
                setattr(cls, name, _examples(given(data=st.data())(inner)))

    @_examples
    @given(data=st.data())
    def test_identity(self, data):
        a = data.draw(self.instances)
        assert _dumps(a.merge(_identity(a))) == _dumps(a)
        assert _dumps(_identity(a).merge(a)) == _dumps(a)

    @_examples
    @given(data=st.data())
    def test_associative(self, data):
        a, b, c = (data.draw(self.instances) for _ in range(3))
        left = a.merge(b).merge(c)
        assert _dumps(left) == _dumps(a.merge(b.merge(c)))
        assert _dumps(a + b + c) == _dumps(left)

    @_examples
    @given(data=st.data())
    def test_commutative(self, data):
        """Every commuting field commutes; whole ledgers where all do."""
        a, b = data.draw(self.instances), data.draw(self.instances)
        ab, ba = a.merge(b).to_dict(), b.merge(a).to_dict()
        commuting = [
            name for name, kind in _kinds(type(a)).items()
            if kind in _COMMUTING
            or (kind == "left" and getattr(a, name) == getattr(b, name))
        ]
        for name in commuting:
            assert json.dumps(ab[name]) == json.dumps(ba[name]), name
        if len(commuting) == len(_kinds(type(a))):
            assert json.dumps(ab) == json.dumps(ba)

    @_examples
    @given(data=st.data())
    def test_counter_conservation(self, data):
        a, b = data.draw(self.instances), data.draw(self.instances)
        merged = a.merge(b).to_dict()
        da, db = a.to_dict(), b.to_dict()
        for name, kind in _kinds(type(a)).items():
            assert json.dumps(merged[name]) == json.dumps(
                _law(da[name], db[name], kind)
            ), name

    @_examples
    @given(data=st.data())
    def test_merge_leaves_operands_untouched(self, data):
        a, b = data.draw(self.instances), data.draw(self.instances)
        before = _dumps(a), _dumps(b)
        a.merge(b)
        a + b
        assert (_dumps(a), _dumps(b)) == before

    def test_foreign_add_not_implemented(self):
        ledger, _ = self.golden
        assert ledger.__add__(42) is NotImplemented
        assert ledger.__add__("ledger") is NotImplemented
        with pytest.raises(TypeError):
            ledger + 1

    @_examples
    @given(data=st.data())
    def test_round_trip(self, data):
        a = data.draw(self.instances)
        assert _dumps(type(a).from_dict(a.to_dict())) == _dumps(a)
        # Through real JSON text too, as cache entries travel.
        text = _dumps(a)
        assert _dumps(type(a).from_dict(json.loads(text))) == text

    def test_golden_to_dict(self):
        ledger, expected = self.golden
        assert _dumps(ledger) == json.dumps(expected)

    def test_from_dict_missing_and_unknown_keys(self):
        """Strict ledgers raise ``KeyError``; lenient ones default."""
        ledger, _ = self.golden
        cls = type(ledger)
        data = dict(ledger.to_dict(), unknown_key="ignored")
        assert _dumps(cls.from_dict(data)) == _dumps(ledger)
        for name in _kinds(cls):
            partial = {k: v for k, v in data.items() if k != name}
            if cls._ledger_strict:
                with pytest.raises(KeyError, match=name):
                    cls.from_dict(partial)
            else:
                loaded = cls.from_dict(partial).to_dict()
                assert json.dumps(loaded[name]) == json.dumps(
                    cls().to_dict()[name]
                ), name
