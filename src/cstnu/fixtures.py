"""The branching-workflow example that the tests, the benchmark and the
docs share.  The tests' own small networks live in `tests/reference.py`."""


def branching_workflow_text():
    """A five-task triage workflow with one conditional branch.

    The long branch (T4, chosen when the branch letter is false) takes
    80-90 minutes; an end-to-end deadline of [136, 150] minutes from the
    start of T4 to the end of T5 then squeezes the post-join buffer
    (the J1 -> T5 delay) into [32, 42] minutes, while the short branch
    leaves it at its minimum.  The workflow is controllable, but only by
    reacting to the observed branch and durations.
    """
    return """\
# tasks with uncontrollable durations (minutes)
task T1 [2,4]
task T2 [5,20]
task T3 [25,45]
task T4 [80,90]
task T5 [10,20]

split S1 [1,2]
join J1 [2,3]

flow T1 -> T2 [1,5]
flow T2 -> S1 [1,5]
flow S1 -> T3 [1,5]
flow S1 -> T4 [1,5]
branch S1 T3 +
branch S1 T4 -
flow T3 -> J1 [1,5]
flow T4 -> J1 [2,5]
flow J1 -> T5 [1,42]

# deadline over the long branch
constrain T4.S -> T5.E [136,150]
"""
