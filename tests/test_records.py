"""The immutable records of the package: value equality and hashing over
their fields, no assignment, a repr that names the fields, and validation
at construction."""
from fractions import Fraction as F

import pytest

from helpers import encloses, layer, net
from luknet import formula as fm
from luknet.equiv import Counterexample, Equal, FiniteGrid
from luknet.graph import GraphNode, MintermCertificate, SubstitutionGraph
from luknet.network import Layer, Network, NodeRef
from luknet.numerics import Interval
from luknet.rewrite import Axiom, DerivationTrace, Step

x1, x2 = fm.var(1), fm.var(2)
CERT = MintermCertificate((F(1), F(-1)), F(0), "integer")
LAYER = layer([[1, -1]], [0], ["none"])

# (class, field names, fields, the same fields changed in one place)
RECORDS = [
    (Interval, "lo hi", (F(0), F(1, 2)), (F(0), F(1))),
    (Layer, "weights biases activations", (LAYER.weights, LAYER.biases, LAYER.activations),
     (LAYER.weights, LAYER.biases, ("clip",))),
    (NodeRef, "layer index", (1, 2), (2, 1)),
    (Network, "input_dim layers", (2, (LAYER,)), (2, (layer([[1, 1]], [0], ["none"]),))),
    (GraphNode, "formula certificate", (x1, CERT), (x1, None)),
    (SubstitutionGraph, "widths nodes", ((2, 1), ((GraphNode(x1),),)),
     ((2, 1), ((GraphNode(x2),),))),
    (MintermCertificate, "m b flavor", (CERT.m, CERT.b, CERT.flavor), (CERT.m, F(1), "integer")),
    (FiniteGrid, "k n", (2, 3), (3, 2)),
    (Equal, "points_checked", (27,), (26,)),
    (Counterexample, "point lhs rhs", ((F(1, 2),), F(1), F(1, 2)), ((F(1, 2),), F(1, 2), F(1))),
    (Axiom, "id lhs rhs", ("Ax1p", fm.odot(x1, x2), fm.odot(x2, x1)),
     ("Ax1p", fm.odot(x1, x2), fm.odot(x1, x2))),
    (Step, "axiom_id direction pos binding node", ("Ax5", "RL", (0, 1), None, (1, 1)),
     ("Ax5", "LR", (0, 1), None, (1, 1))),
    (DerivationTrace, "start steps", (x1, (Step("Ax5", "RL", ()),)), (x1, ())),
]
IDS = [cls.__name__ for cls, _, _, _ in RECORDS]


@pytest.mark.parametrize("cls,names,fields,other", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, fields, other):
    a, b, c = cls(*fields), cls(*fields), cls(*other)
    assert a == b and not a != b
    assert a != c and not a == c
    # The hash of the field tuple, as for a frozen dataclass.
    assert hash(a) == hash(b) == hash(fields)
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("cls,names,fields,other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, names, fields, other):
    record = cls(*fields)
    for name, value in zip(names.split(), other):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, name) for name in names.split()] == list(fields)


@pytest.mark.parametrize("cls,names,fields,other", RECORDS, ids=IDS)
def test_repr_names_the_fields(cls, names, fields, other):
    named = ", ".join(f"{k}={v!r}" for k, v in zip(names.split(), fields))
    assert repr(cls(*fields)) == f"{cls.__name__}({named})"


def test_defaults_and_keywords():
    assert GraphNode(x1) == GraphNode(formula=x1, certificate=None)
    assert Equal() == Equal(points_checked=0)
    assert Network(input_dim=2, layers=(LAYER,)) == net(2, LAYER)
    assert encloses(Interval(lo=F(0), hi=F(0)), Interval(F(0), F(0)))
    assert Step("Ax5", "LR", ()) == Step(axiom_id="Ax5", direction="LR", pos=(), binding=None, node=None)
    assert DerivationTrace(x1) == DerivationTrace(start=x1, steps=())
    assert Axiom(id="Ax5", lhs=x1, rhs=x1) == Axiom("Ax5", x1, x1)


L = layer  # short, for the table below


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: Interval(F(1), F(0)), ValueError, "empty interval: [1, 0]"),
        (lambda: Network(0, (L([[1]], [0], ["none"]),)), ValueError,
         "network needs >= 1 input and >= 1 layer"),
        (lambda: Network(1, ()), ValueError, "network needs >= 1 input and >= 1 layer"),
        (lambda: Network(2, (L([[1, 1]], [0, 0], ["relu"]), L([[1]], [0], ["none"]))),
         ValueError, "layer 1: ragged weights/biases/activations"),
        (lambda: Network(1, (L([], [], []),)), ValueError, "layer 1: empty layer"),
        (lambda: Network(2, (L([[1, 1], [1]], [0, 0], ["relu", "relu"]), L([[1, 1]], [0], ["none"]))),
         ValueError, "layer 1: weight row of length 1, expected 2"),
        (lambda: Network(1, (L([[1]], [0], ["tanh"]),)), ValueError,
         "layer 1: unknown activation 'tanh'"),
        (lambda: Network(1, (L([[1]], [0], ["none"]), L([[1]], [0], ["none"]))), ValueError,
         "'none' activation is allowed only on the output node"),
        (lambda: Network(1, (L([[1], [1]], [0, 0], ["relu", "relu"]),)), ValueError,
         "output layer must have width 1"),
        (lambda: SubstitutionGraph((1,), ()), ValueError, "graph needs positive widths d_0..d_L"),
        (lambda: SubstitutionGraph((0, 1), ((GraphNode(x1),),)), ValueError,
         "graph needs positive widths d_0..d_L"),
        (lambda: SubstitutionGraph((1, 2), ((GraphNode(x1), GraphNode(x1)),)), ValueError,
         "exactly one output node is required"),
        (lambda: SubstitutionGraph((1, 1), ()), ValueError, "node levels do not match widths"),
        (lambda: SubstitutionGraph((2, 2, 1), ((GraphNode(x1),), (GraphNode(x1),))), ValueError,
         "level 1 has 1 nodes, expected 2"),
        (lambda: SubstitutionGraph((1, 1), ((GraphNode(x2),),)), ValueError,
         "node (1,1) uses x2 but level 0 has width 1"),
        (lambda: MintermCertificate((F(1),), F(0), "complex"), ValueError,
         "unknown flavor 'complex'"),
        (lambda: MintermCertificate((F(1, 2),), F(0), "integer"), ValueError,
         "integer certificate with non-integer entries"),
        (lambda: MintermCertificate((F(1),), F(1, 2), "integer"), ValueError,
         "integer certificate with non-integer entries"),
        (lambda: FiniteGrid(0, 2), ValueError, "grid needs k >= 1 and n >= 0"),
        (lambda: FiniteGrid(2, -1), ValueError, "grid needs k >= 1 and n >= 0"),
        (lambda: Axiom("AxW", fm.oplus(x1, fm.var(4)), x1), ValueError,
         "axiom AxW uses more than 3 metavariables"),
        (lambda: Axiom("AxW", x1, fm.var(4)), ValueError, "axiom AxW uses more than 3 metavariables"),
    ],
)
def test_validation_at_construction(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message
