"""The eight value classes are frozen records (geometry._Record): each one binds,
prints, compares, hashes, refuses assignment, copies and pickles as the frozen
dataclass it replaces did, and keeps that class's validation messages."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from cavityrad import geometry
from cavityrad.bessel import BesselZeroTable
from cavityrad.binned import BinnedSpectrum
from cavityrad.geometry import (BoxGeometry, FilmGeometry, GeometryDescriptors, RodGeometry,
                                SphereGeometry)
from cavityrad.modes import ModeList

OMEGAS, COUNTS, ZEROS = np.array([1.0, 2.5]), np.array([2, 4]), (np.array([math.pi]),)
LEFT, U = np.array([0.0, 0.5]), np.array([1e-20, 2e-20])

# class -> (arguments, the repr the frozen dataclass printed for them, arguments of an
# unequal instance, [(refused arguments, ValueError message)])
RECORDS = {
    FilmGeometry: ((1e-3,), "FilmGeometry(L1=0.001)", (2e-3,),
                   [((0.0,), "L1 must be a positive finite length")]),
    RodGeometry: ((0.001, 0.002), "RodGeometry(L1=0.001, L2=0.002)", (0.002, 0.001),
                  [((1.0, math.nan), "L1, L2 must be a positive finite length")]),
    BoxGeometry: ((1e-3, 2e-3, 3), "BoxGeometry(L1=0.001, L2=0.002, L3=3.0)", (1e-3, 2e-3, 4.0),
                  [((1.0, 1.0, True), "L1, L2, L3 must be a positive finite length")]),
    SphereGeometry: ((np.float32(0.5),), "SphereGeometry(diameter=0.5)", (0.25,),
                     [(("1",), "diameter must be a positive finite length")]),
    GeometryDescriptors: ((1.0, 2.0, -3.0), "GeometryDescriptors(V=1.0, A=2.0, M=-3.0)",
                          (1.0, 2.0, 3.0),
                          [((0.0, 1.0, 1.0), "V must be a positive finite volume"),
                           ((1.0, math.inf, 1.0), "A and M must be finite"),
                           ((1.0, 1.0, math.nan), "A and M must be finite")]),
    ModeList: ((OMEGAS, COUNTS, 3.0),
               "ModeList(omegas=array([1. , 2.5]), multiplicities=array([2, 4]), omega_max=3.0)",
               (OMEGAS, COUNTS, 4.0), []),
    BinnedSpectrum: ((0.5, LEFT, U, 2.0, True),
                     "BinnedSpectrum(delta_omega=0.5, omega_left=array([0. , 0.5]), "
                     "u=array([1.e-20, 2.e-20]), volume=2.0, last_bin_partial=True)",
                     (0.25, LEFT, U, 2.0, True), []),
    BesselZeroTable: ((4.0, ZEROS),
                      "BesselZeroTable(x_max=4.0, zeros_by_l=(array([3.14159265]),))",
                      (5.0, ZEROS), []),
}

# the classes whose fields are all hashable; an array field makes a record unhashable
HASHABLE = {FilmGeometry, RodGeometry, BoxGeometry, SphereGeometry, GeometryDescriptors}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_value_class_keeps_the_frozen_dataclass_contract(cls):
    args, text, other_args, refusals = RECORDS[cls]
    assert issubclass(cls, geometry._Record)
    rec = cls(*args)
    assert repr(rec) == text
    # keyword construction, in field order and in reverse
    pairs = list(zip(cls._fields, args))
    for kwargs in (dict(pairs), dict(pairs[::-1])):
        assert repr(cls(**kwargs)) == text
    with pytest.raises(TypeError):
        cls(*args, *args)

    # == by the field tuple within one class, hash of the field tuple
    same, other = cls(*args), cls(*other_args)
    assert rec == same and not rec != same
    assert rec != other and not rec == other
    assert rec.__eq__(rec._astuple()) is NotImplemented and rec != rec._astuple()
    if cls in HASHABLE:
        assert hash(rec) == hash(same) == hash(rec._astuple())
        assert hash(rec) != hash(other)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)

    # frozen: no field and no other attribute may be set or deleted
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError, match=re.escape("cannot assign to field %r" % name)):
            setattr(rec, name, 1.0)
        with pytest.raises(AttributeError, match=re.escape("cannot delete field %r" % name)):
            delattr(rec, name)
    assert repr(rec) == text

    for back in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec), copy.copy(rec)):
        assert type(back) is cls and repr(back) == text
        assert back.__dict__.keys() == rec.__dict__.keys()

    for bad, message in refusals:
        with pytest.raises(ValueError) as info:
            cls(*bad)
        assert str(info.value) == message


def test_records_of_different_classes_with_equal_fields_differ():
    film, sphere = FilmGeometry(1e-3), SphereGeometry(1e-3)
    assert film._astuple() == sphere._astuple()
    assert film != sphere and not film == sphere
