"""The shared physical constants, pinned to their definitional values."""

import pytest

from nh3econ import units


def test_definitional_constants():
    assert units.TCE_GJ == 29.3076
    assert units.TOE_GJ == 41.868
    assert units.MWH_GJ == 3.6
    assert units.BTU_J == 1055.06
    assert units.KBTU_GJ == units.BTU_J * 1e-6


def test_tce_to_kbtu():
    # 29.3076 GJ over 1.05506 MJ per kBtu = 27778.136 kBtu (27.778 MBtu)
    expected = 29.3076 / (1055.06 * 1e3 / 1e9)
    assert units.TCE_GJ / units.KBTU_GJ == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(27778.1358, abs=1e-3)


def test_heating_values_and_stoichiometry():
    assert units.H2_HHV_GJ_PER_T == 141.8
    assert units.NH3_LHV_GJ_PER_T == 18.6
    assert units.HEATING_OIL_LHV_GJ_PER_T == units.TOE_GJ
    # NH3 is 3/17 hydrogen by mass
    assert units.NH3_T_PER_T_H2 == 17.0 / 3.0
