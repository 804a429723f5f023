(** Delta-debugging minimizer for failing scenarios.

    Given a scenario whose execution violates an invariant, [minimize]
    searches for a sub-schedule that still violates it: classic ddmin over
    the action list (drop ever-finer complements), followed by a
    one-at-a-time sweep.  Only the schedule shrinks — seed, topology and
    channel parameters are part of the bug's identity and stay fixed.

    The caller supplies the failure predicate; {!Fuzz} uses "replaying
    still reports a violation of the same check", so the minimized
    scenario fails for the same reason, not a different one. *)

val minimize : still_fails:(Scenario.t -> bool) -> Scenario.t -> Scenario.t
(** At most 400 replays are spent; the best scenario found so far is
    returned when the budget runs out.  The result always satisfies
    [still_fails] when the input does. *)
