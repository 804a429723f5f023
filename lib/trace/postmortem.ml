module Table = Dgs_metrics.Table
module Histogram = Dgs_metrics.Histogram
module Registry = Dgs_metrics.Registry

(* node -> (last change time, final view, changes) *)
type view_tally = (int, float * int list * int) Hashtbl.t

let view_tally () = Hashtbl.create 32

let tally_view_change tally ~time = function
  | Trace.View_changed { node; view; _ } ->
      let changes =
        match Hashtbl.find_opt tally node with Some (_, _, n) -> n + 1 | None -> 1
      in
      Hashtbl.replace tally node (time, view, changes)
  | _ -> ()

let view_tally_sink tally = Trace.make (tally_view_change tally)

let view_stabilization tally =
  Hashtbl.fold
    (fun node (time, view, changes) acc -> (node, time, view, changes) :: acc)
    tally []
  |> List.sort compare

type t = {
  events : (float * Trace.event) list;
  n_events : int;
  t_start : float;
  t_end : float;
  node_list : int list;
  changes : (int * float) list;  (* (node, time) of each view change, in emission order *)
  tally : view_tally;
  dag : Causal.t Lazy.t;
}

let analyze events =
  let n_events = List.length events in
  let t_start, t_end =
    match events with
    | [] -> (0.0, 0.0)
    | (t0, _) :: _ ->
        (t0, List.fold_left (fun acc (t, _) -> Float.max acc t) t0 events)
  in
  let nodes = Hashtbl.create 64 in
  let changes = ref [] in
  let tally = view_tally () in
  List.iter
    (fun (time, ev) ->
      Hashtbl.replace nodes (Trace.node_of ev) ();
      (match ev with
      | Trace.View_changed { node; _ } -> changes := (node, time) :: !changes
      | _ -> ());
      tally_view_change tally ~time ev)
    events;
  {
    events;
    n_events;
    t_start;
    t_end;
    node_list = Hashtbl.fold (fun v () acc -> v :: acc) nodes [] |> List.sort compare;
    changes = List.rev !changes;
    tally;
    dag = lazy (Causal.build events);
  }

let event_count t = t.n_events
let nodes t = t.node_list

let ids_to_string ids =
  "{" ^ String.concat " " (List.map string_of_int ids) ^ "}"

(* Bucket index of a time over [t_start, t_end]; the last instant folds
   into the last bucket. *)
let bucket_of t ~buckets time =
  let span = t.t_end -. t.t_start in
  if span <= 0.0 then 0
  else
    min (buckets - 1)
      (int_of_float (float_of_int buckets *. (time -. t.t_start) /. span))

let last_change_time t node =
  Option.map (fun (time, _, _) -> time) (Hashtbl.find_opt t.tally node)

let convergence_timeline ?(buckets = 20) t =
  let buckets = max 1 buckets in
  let span = t.t_end -. t.t_start in
  let vc = Array.make buckets 0 in
  let vc_nodes = Array.make buckets [] in
  let attempts = Array.make buckets 0 in
  let accepts = Array.make buckets 0 in
  let deliveries = Array.make buckets 0 in
  List.iter
    (fun (time, ev) ->
      let b = bucket_of t ~buckets time in
      match ev with
      | Trace.View_changed { node; _ } ->
          vc.(b) <- vc.(b) + 1;
          vc_nodes.(b) <- node :: vc_nodes.(b)
      | Trace.Merge_attempt _ -> attempts.(b) <- attempts.(b) + 1
      | Trace.Merge_accepted _ -> accepts.(b) <- accepts.(b) + 1
      | Trace.Msg_delivered _ -> deliveries.(b) <- deliveries.(b) + 1
      | _ -> ())
    t.events;
  let n_nodes = List.length t.node_list in
  let table =
    Table.create ~title:"convergence timeline"
      ~columns:
        [
          "t";
          "view_changes";
          "changed_nodes";
          "merge_attempts";
          "merge_accepts";
          "deliveries";
          "stable_nodes";
        ]
  in
  for b = 0 to buckets - 1 do
    let b_start = t.t_start +. (span *. float_of_int b /. float_of_int buckets) in
    let b_end =
      t.t_start +. (span *. float_of_int (b + 1) /. float_of_int buckets)
    in
    (* Stable by the end of this bucket: nodes whose last view change does
       not lie beyond it (nodes that never changed count as stable). *)
    let stable =
      List.fold_left
        (fun acc v ->
          match last_change_time t v with
          | Some tc when tc > b_end -> acc
          | _ -> acc + 1)
        0 t.node_list
    in
    let distinct =
      List.length (List.sort_uniq compare vc_nodes.(b))
    in
    Table.add_row table
      [
        Table.cell_float ~decimals:2 b_start;
        Table.cell_int vc.(b);
        Table.cell_int distinct;
        Table.cell_int attempts.(b);
        Table.cell_int accepts.(b);
        Table.cell_int deliveries.(b);
        Printf.sprintf "%d/%d" stable n_nodes;
      ]
  done;
  table

let stabilization t =
  let table =
    Table.create ~title:"view stabilization"
      ~columns:[ "node"; "view_changes"; "last_change"; "final_size"; "final_view" ]
  in
  List.iter
    (fun v ->
      match Hashtbl.find_opt t.tally v with
      | Some (time, view, changes) ->
          Table.add_row table
            [
              Table.cell_int v;
              Table.cell_int changes;
              Table.cell_float ~decimals:2 time;
              Table.cell_int (List.length view);
              ids_to_string view;
            ]
      | None ->
          Table.add_row table
            [ Table.cell_int v; Table.cell_int 0; "-"; "-"; "?" ])
    t.node_list;
  table

(* One pass in id order: edges point strictly backward, so every event's
   chain length and root follow from its proximate cause's, already
   filled in — [Causal.chain] per row would make long traces quadratic. *)
let eviction_chains t =
  let dag = Lazy.force t.dag in
  let n = Causal.size dag in
  let hops = Array.make n 1 and root = Array.init n Fun.id in
  let step i = Format.asprintf "%a" Causal.pp_step (dag, i) in
  let table =
    Table.create ~title:"eviction chains"
      ~columns:[ "t"; "node"; "evicted"; "view_after"; "cause"; "hops"; "root" ]
  in
  for i = 0 to n - 1 do
    let cause = Causal.proximate dag i in
    Option.iter
      (fun p ->
        hops.(i) <- hops.(p) + 1;
        root.(i) <- root.(p))
      cause;
    match Causal.event dag i with
    | time, Trace.View_changed { node; removed = _ :: _ as removed; view; _ } ->
        Table.add_row table
          [
            Table.cell_float ~decimals:2 time;
            Table.cell_int node;
            ids_to_string removed;
            ids_to_string view;
            Option.fold ~none:"-" ~some:step cause;
            Table.cell_int hops.(i);
            step root.(i);
          ]
    | _ -> ()
  done;
  table

let final_views t =
  Hashtbl.fold (fun _ (_, view, _) acc -> List.sort compare view :: acc) t.tally []

let group_sizes t =
  let h = Histogram.create () in
  List.iter
    (fun view -> Histogram.add_int h (List.length view))
    (List.sort_uniq compare (final_views t));
  h

let group_lifetimes t =
  let h = Histogram.create () in
  (* Node by node, each node's changes in emission order. *)
  let rec spans = function
    | (v, a) :: ((w, b) :: _ as rest) when v = w ->
        Histogram.add h (b -. a);
        spans rest
    | (_, last) :: rest ->
        Histogram.add h (t.t_end -. last);
        spans rest
    | [] -> ()
  in
  spans (List.stable_sort (fun (v, _) (w, _) -> compare v w) t.changes);
  h

let hist_section title h =
  Printf.sprintf "%s (n=%d, mean %.2f):\n%s" title (Histogram.count h)
    (Histogram.mean h) (Histogram.render h)

let render t =
  String.concat "\n"
    [
      Printf.sprintf "trace: %d events, %d nodes, t in [%g, %g]" t.n_events
        (List.length t.node_list) t.t_start t.t_end;
      "";
      Table.render (convergence_timeline t);
      "";
      Table.render (stabilization t);
      "";
      Table.render (eviction_chains t);
      "";
      hist_section "group size distribution" (group_sizes t);
      "";
      hist_section "group lifetime distribution" (group_lifetimes t);
    ]

let hist_csv h =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "bin_lower,count\n";
  List.iter
    (fun (lo, c) -> Buffer.add_string buf (Printf.sprintf "%g,%d\n" lo c))
    (Histogram.bins h);
  Buffer.contents buf

let csv_exports t =
  [
    ("timeline.csv", Table.to_csv (convergence_timeline t));
    ("stabilization.csv", Table.to_csv (stabilization t));
    ("evictions.csv", Table.to_csv (eviction_chains t));
    ("group_sizes.csv", hist_csv (group_sizes t));
    ("group_lifetimes.csv", hist_csv (group_lifetimes t));
  ]

let snapshot_table (s : Registry.snapshot) =
  let jobs = match s.Registry.jobs with None -> "-" | Some j -> string_of_int j in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "metrics snapshot (cores=%d jobs=%s)" s.Registry.cores
           jobs)
      ~columns:[ "metric"; "kind"; "value" ]
  in
  List.iter
    (fun (name, n) ->
      Table.add_row table [ name; "counter"; Table.cell_int n ])
    s.Registry.counters;
  List.iter
    (fun (name, v) ->
      Table.add_row table [ name; "gauge"; Table.cell_float ~decimals:4 v ])
    s.Registry.gauges;
  List.iter
    (fun (name, (st : Registry.timer_stat)) ->
      let mean =
        if st.Registry.spans = 0 then 0.0
        else st.Registry.total_ns /. float_of_int st.Registry.spans
      in
      Table.add_row table
        [
          name;
          "timer";
          Printf.sprintf "n=%d total=%.0fns mean=%.0fns max=%.0fns"
            st.Registry.spans st.Registry.total_ns mean st.Registry.max_ns;
        ])
    s.Registry.timers;
  List.iter
    (fun (name, (w, bins)) ->
      let n = List.fold_left (fun acc (_, c) -> acc + c) 0 bins in
      Table.add_row table
        [
          name;
          "histogram";
          Printf.sprintf "n=%d bins=%d width=%g" n (List.length bins) w;
        ])
    s.Registry.histograms;
  table

let render_snapshots snaps =
  String.concat "\n" (List.map (fun s -> Table.render (snapshot_table s)) snaps)
