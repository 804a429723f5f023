(** Protocol parameters.

    [dmax] is the applicative diameter bound, fixed for the whole execution
    (paper Section 3).  The remaining knobs exist for the E8 ablation
    experiments and default to the paper's behavior. *)

type priority_mode =
  | Oldness  (** logical-clock oldness, frozen inside groups (paper Section 4.1) *)
  | Lowest_id  (** static id-based priority (ablation) *)

type t = {
  dmax : int;
  quarantine_enabled : bool;
  compat_shortcut_enabled : bool;
      (** the second disjunct of [compatibleList] (shortcut-aware merging) *)
  joint_admission_enabled : bool;
      (** cross-compatibility of concurrently admitted foreign groups: a
          node refuses to bridge two groups whose union would exceed [dmax]
          through it (DESIGN.md Section 5; ablated in E8) *)
  admission_gate_enabled : bool;
      (** default on: cascaded view admission plus continuous membership
          re-validation.  A new direct neighbor enters the view only once
          it lists me unmarked; a transitive node only once a view-mate
          advertises it in its own view; and {e retained} members are
          re-checked every round.  Re-validation is strictly firsthand: a
          direct sender whose advertised view persistently excludes me
          for [Priority.cooldown_window] consecutive reports becomes
          inadmissible (its own affirmation clears the count instantly),
          and a member with {e no} admission evidence from anyone for the
          same window is dropped as starved.  This is what makes
          one-sided memberships self-stabilizing (the fuzzer-found
          complete4 repro) at the cost of one extra admission round per
          hop.  E8 measures the tradeoff; DESIGN.md Section 5 item 15. *)
  contest_cooldown_enabled : bool;
      (** default on: two dampers on the too-far contest.  A node whose
          own priority just {e defended} a pairing (the far node lost)
          freezes its oldness for [Priority.cooldown_window] computes, so
          winning a contest cannot immediately re-age it into displacing
          its new partner; and a far node that just {e won} here may keep
          winning against the same providers but not against a provider
          set disjoint from the one its last win cut — persistent
          geometric rejection stays allowed while pair-hopping is not.
          Breaks the oldness-rotation eviction livelock (the fuzzer-found
          ring7 repro); DESIGN.md Section 5 item 14.  Ablated in E8. *)
  priority_mode : priority_mode;
}

val make :
  ?quarantine_enabled:bool ->
  ?compat_shortcut_enabled:bool ->
  ?joint_admission_enabled:bool ->
  ?admission_gate_enabled:bool ->
  ?contest_cooldown_enabled:bool ->
  ?priority_mode:priority_mode ->
  dmax:int ->
  unit ->
  t
(** Raises [Invalid_argument] when [dmax < 1]. *)
