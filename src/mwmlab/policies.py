"""Names of the four server assignment policies.

This module holds only the names. Each policy picks a slot's matching from
the queue lengths left by the previous slot and the slot's connectivities,
``random_maximal`` also from the slot's draws. The decisions live in
``mwmlab.engine``, whose one batched kernel returns every row's 0/1 service
vector; ``tests/reference.py`` holds the scalar deciders it is checked
against.
"""

MWM = "mwm"
RANDOM_MAXIMAL = "random_maximal"
GREEDY_LCQ = "greedy_lcq"
FIXED_ORDER = "fixed_order"

POLICY_NAMES = (MWM, RANDOM_MAXIMAL, GREEDY_LCQ, FIXED_ORDER)
