type violation = { check : string; time : float; detail : string }

type report = {
  violations : violation list;
  stabilized : bool;
  quiesce_time : float option;
  livelock_period : int option;
  maximality_gap : bool;
  groups : int;
  evictions : int;
  computes : int;
  broadcasts : int;
  deliveries : int;
  drops : int;
  losses : int;
  engine_fires : int;
  engine_fire_budget : int;
}

let failed r = r.violations <> []

module Json = Dgs_util.Json

(* Machine-readable report encoding: every field, every violation, fixed
   key order, deterministic number formatting — two reports are equal iff
   their JSON strings are byte-equal, which is what the jobs=N vs jobs=1
   determinism tests compare. *)
let report_to_json r =
  let int n = Json.Num (float_of_int n) in
  let opt f = function None -> Json.Null | Some v -> f v in
  let violation v =
    Json.Obj
      [
        ("check", Json.Str v.check);
        ("time", Json.Num v.time);
        ("detail", Json.Str v.detail);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("violations", Json.Arr (List.map violation r.violations));
         ("stabilized", Json.Bool r.stabilized);
         ("quiesce_time", opt (fun t -> Json.Num t) r.quiesce_time);
         ("livelock_period", opt int r.livelock_period);
         ("maximality_gap", Json.Bool r.maximality_gap);
         ("groups", int r.groups);
         ("evictions", int r.evictions);
         ("computes", int r.computes);
         ("broadcasts", int r.broadcasts);
         ("deliveries", int r.deliveries);
         ("drops", int r.drops);
         ("losses", int r.losses);
         ("engine_fires", int r.engine_fires);
         ("engine_fire_budget", int r.engine_fire_budget);
       ])

let pp_violation ppf v =
  Format.fprintf ppf "@[<h>[%s] t=%.3f %s@]" v.check v.time v.detail

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d violation(s)%a@,\
     stabilized=%b%a%a groups=%d evictions=%d maximality_gap=%b@,\
     computes=%d broadcasts=%d deliveries=%d drops=%d losses=%d@,\
     engine fires=%d (budget %d)@]"
    (if failed r then "FAIL" else "ok")
    (List.length r.violations)
    (fun ppf -> function
      | [] -> ()
      | vs ->
          List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v) vs)
    r.violations r.stabilized
    (fun ppf -> function
      | None -> ()
      | Some t -> Format.fprintf ppf " (t=%.1f)" t)
    r.quiesce_time
    (fun ppf -> function
      | None -> ()
      | Some p -> Format.fprintf ppf " livelock_period=%d" p)
    r.livelock_period r.groups r.evictions r.maximality_gap r.computes r.broadcasts
    r.deliveries r.drops r.losses r.engine_fires r.engine_fire_budget
