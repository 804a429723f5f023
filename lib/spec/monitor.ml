type timeline = {
  time_to_agreement : float option;
  time_to_safety : float option;
  time_to_maximality : float option;
  time_to_legitimate : float option;
}

type t = {
  dmax : int;
  (* Time since which each predicate has held in every observation; [None]
     while it is (still) violated.  A sustained-from time, not a
     first-held time: a predicate that breaks and recovers restarts its
     clock. *)
  mutable agreement_since : float option;
  mutable safety_since : float option;
  mutable maximality_since : float option;
  mutable legitimate_since : float option;
}

let create ~dmax =
  {
    dmax;
    agreement_since = None;
    safety_since = None;
    maximality_since = None;
    legitimate_since = None;
  }

let observe_at t ~time c =
  let agreement = Predicates.agreement c <> None in
  let safety = Predicates.safety ~dmax:t.dmax c <> None in
  let maximality = Predicates.maximality ~dmax:t.dmax c <> None in
  let update since violated =
    if violated then None else match since with None -> Some time | s -> s
  in
  t.agreement_since <- update t.agreement_since agreement;
  t.safety_since <- update t.safety_since safety;
  t.maximality_since <- update t.maximality_since maximality;
  t.legitimate_since <-
    update t.legitimate_since (agreement || safety || maximality)

let timeline t =
  {
    time_to_agreement = t.agreement_since;
    time_to_safety = t.safety_since;
    time_to_maximality = t.maximality_since;
    time_to_legitimate = t.legitimate_since;
  }

let pp_timeline ppf tl =
  let cell = function
    | Some x -> Printf.sprintf "%g" x
    | None -> "never (or not sustained)"
  in
  Format.fprintf ppf
    "@[<v>time to agreement (ΠA): %s@,\
     time to safety (ΠS): %s@,\
     time to maximality (ΠM): %s@,\
     time to legitimacy (all three): %s@]"
    (cell tl.time_to_agreement) (cell tl.time_to_safety)
    (cell tl.time_to_maximality) (cell tl.time_to_legitimate)
