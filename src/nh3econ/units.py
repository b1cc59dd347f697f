"""Physical constants shared by the models, as named plain floats.

The analyses need a fixed set of conversion factors and heating values,
not unit algebra: each formula multiplies by the named factors it needs,
so the factors stay auditable in one place.
"""

# Definitional energy constants.
TCE_GJ = 29.3076           # 1 tce = 7000 kcal/kg standard coal
TOE_GJ = 41.868
BTU_J = 1055.06
KBTU_GJ = BTU_J * 1e-6
MWH_GJ = 3.6

# Heating values shared by the carrier, co-firing and scenario models.
H2_HHV_GJ_PER_T = 141.8
NH3_LHV_GJ_PER_T = 18.6
HEATING_OIL_LHV_GJ_PER_T = TOE_GJ           # shipping fuel, 1 toe per tonne

# Stoichiometry: NH3 is 3/17 hydrogen by mass.
NH3_T_PER_T_H2 = 17.0 / 3.0
