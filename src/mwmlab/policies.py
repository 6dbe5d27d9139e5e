"""Names of the slot-wise server assignment policies.

Every policy is a stateless function of the queue lengths left by the
previous slot and the current connectivity matrix, and returns the
canonical matching form: a sorted pair tuple that never contains a
disconnected pair or an empty queue. ``mwmlab.engine`` decides all four in
one batched kernel; ``tests/reference.py`` holds the scalar deciders it is
checked against.
"""

MWM = "mwm"
RANDOM_MAXIMAL = "random_maximal"
GREEDY_LCQ = "greedy_lcq"
FIXED_ORDER = "fixed_order"

POLICY_NAMES = (MWM, RANDOM_MAXIMAL, GREEDY_LCQ, FIXED_ORDER)
