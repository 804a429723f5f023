(* Split [l] into [n] chunks of near-equal length (the last chunks may be
   one element shorter). *)
let chunks l n =
  let len = List.length l in
  let base = len / n and extra = len mod n in
  let rec take k l acc =
    if k = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: tl -> take (k - 1) tl (x :: acc)
  in
  let rec go i l acc =
    if i >= n || l = [] then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let c, rest = take size l [] in
      go (i + 1) rest (if c = [] then acc else c :: acc)
  in
  go 0 l []

(* Replays one minimization may spend. *)
let max_attempts = 400

let minimize ~still_fails (sc : Scenario.t) =
  let attempts = ref 0 in
  let try_actions actions =
    !attempts < max_attempts
    && begin
         incr attempts;
         still_fails { sc with Scenario.actions }
       end
  in
  (* ddmin: try dropping each chunk; on success restart with coarser
     granularity, otherwise refine until chunks are single actions. *)
  let rec ddmin actions n =
    let len = List.length actions in
    if len <= 1 || !attempts >= max_attempts then actions
    else
      let cs = chunks actions n in
      let rec drop_one before after =
        match after with
        | [] -> None
        | c :: rest ->
            let candidate = List.concat (List.rev_append before rest) in
            if try_actions candidate then Some candidate
            else drop_one (c :: before) rest
      in
      match drop_one [] cs with
      | Some smaller -> ddmin smaller (max 2 (n - 1))
      | None -> if n >= len then actions else ddmin actions (min len (2 * n))
  in
  let actions = ddmin sc.Scenario.actions 2 in
  (* Final sweep: ddmin with complements can miss single removable
     actions; try deleting each remaining one. *)
  let rec sweep actions i =
    if i >= List.length actions || !attempts >= max_attempts then actions
    else
      let candidate = List.filteri (fun j _ -> j <> i) actions in
      if try_actions candidate then sweep candidate i
      else sweep actions (i + 1)
  in
  { sc with Scenario.actions = sweep actions 0 }
