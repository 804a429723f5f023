(* Live handles are plain mutable records guarded by an [on] flag baked in
   at registration time, so the disabled path of every hot operation is one
   load and branch — the Trace.null discipline.  The registry itself is a
   set of name-interned handle tables; snapshots sort them so exports are
   deterministic. *)

let now_ns () = Unix.gettimeofday () *. 1e9

module Counter = struct
  type t = { on : bool; mutable n : int }

  let incr c = if c.on then c.n <- c.n + 1
  let add c k = if c.on then c.n <- c.n + k
  let value c = c.n
  let disabled = { on = false; n = 0 }
  let make () = { on = true; n = 0 }
end

module Gauge = struct
  type t = { on : bool; mutable v : float }

  let set g v = if g.on then g.v <- v
  let value g = g.v
  let disabled = { on = false; v = 0.0 }
  let make () = { on = true; v = 0.0 }
end

module Timer = struct
  type t = { on : bool; mutable spans : int; mutable total : float; mutable max : float }

  let start tm = if tm.on then now_ns () else 0.0

  let stop tm t0 =
    if tm.on then begin
      let d = now_ns () -. t0 in
      tm.spans <- tm.spans + 1;
      tm.total <- tm.total +. d;
      if d > tm.max then tm.max <- d
    end

  let lap tm t0 =
    if tm.on then begin
      let t1 = now_ns () in
      let d = t1 -. t0 in
      tm.spans <- tm.spans + 1;
      tm.total <- tm.total +. d;
      if d > tm.max then tm.max <- d;
      t1
    end
    else 0.0

  let time tm f =
    let t0 = start tm in
    Fun.protect ~finally:(fun () -> stop tm t0) f

  let count tm = tm.spans
  let total_ns tm = tm.total
  let disabled = { on = false; spans = 0; total = 0.0; max = 0.0 }
  let make () = { on = true; spans = 0; total = 0.0; max = 0.0 }
end

module Hist = struct
  type t = { on : bool; h : Histogram.t }

  let observe h x = if h.on then Histogram.add h.h x
  let observe_int h x = observe h (float_of_int x)
  let count h = Histogram.count h.h
  let disabled = { on = false; h = Histogram.create () }
  let make bin_width = { on = true; h = Histogram.create ~bin_width () }
end

type t = {
  enabled : bool;
  counters : (string, Counter.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
  timers : (string, Timer.t) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

let null =
  {
    enabled = false;
    counters = Hashtbl.create 1;
    gauges = Hashtbl.create 1;
    timers = Hashtbl.create 1;
    hists = Hashtbl.create 1;
  }

let create () =
  {
    enabled = true;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    timers = Hashtbl.create 8;
    hists = Hashtbl.create 8;
  }

let enabled t = t.enabled

let labelled name = function
  | [] -> name
  | labels ->
      let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
      name ^ "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let intern tbl name make disabled live =
  if not live then disabled
  else
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
        let h = make () in
        Hashtbl.replace tbl name h;
        h

let counter t name =
  intern t.counters name Counter.make Counter.disabled t.enabled

let gauge t name = intern t.gauges name Gauge.make Gauge.disabled t.enabled
let timer t name = intern t.timers name Timer.make Timer.disabled t.enabled

let histogram ?(bin_width = 1.0) t name =
  if not t.enabled then Hist.disabled
  else
    match Hashtbl.find_opt t.hists name with
    | Some h ->
        let width = Histogram.bin_width h.Hist.h in
        if width <> bin_width then
          invalid_arg
            (Printf.sprintf
               "Registry.histogram: %s already registered with bin width %g"
               name width);
        h
    | None ->
        let h = Hist.make bin_width in
        Hashtbl.replace t.hists name h;
        h

(* --- snapshots --- *)

type timer_stat = { spans : int; total_ns : float; max_ns : float }

type snapshot = {
  cores : int;
  jobs : int option;
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer_stat) list;
  histograms : (string * (float * (float * int) list)) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot ?jobs (t : t) =
  {
    cores = Domain.recommended_domain_count ();
    jobs;
    counters = sorted_bindings t.counters (fun c -> c.Counter.n);
    gauges = sorted_bindings t.gauges (fun g -> g.Gauge.v);
    timers =
      sorted_bindings t.timers (fun tm ->
          {
            spans = tm.Timer.spans;
            total_ns = tm.Timer.total;
            max_ns = tm.Timer.max;
          });
    histograms =
      sorted_bindings t.hists (fun { Hist.h; _ } ->
          (Histogram.bin_width h, Histogram.bins h));
  }

let empty_snapshot =
  { cores = 0; jobs = None; counters = []; gauges = []; timers = []; histograms = [] }

(* Merge two sorted assoc lists pointwise. *)
let rec merge_assoc f xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | (kx, vx) :: xs', (ky, vy) :: ys' ->
      let c = compare kx ky in
      if c = 0 then (kx, f kx vx vy) :: merge_assoc f xs' ys'
      else if c < 0 then (kx, vx) :: merge_assoc f xs' ys
      else (ky, vy) :: merge_assoc f xs ys'

let merge_bins = merge_assoc (fun _ a b -> a + b)

let merge2 a b =
  {
    cores = max a.cores b.cores;
    jobs = (match a.jobs with Some _ -> a.jobs | None -> b.jobs);
    counters = merge_assoc (fun _ x y -> x + y) a.counters b.counters;
    gauges = merge_assoc (fun _ x y -> Float.max x y) a.gauges b.gauges;
    timers =
      merge_assoc
        (fun _ x y ->
          {
            spans = x.spans + y.spans;
            total_ns = x.total_ns +. y.total_ns;
            max_ns = Float.max x.max_ns y.max_ns;
          })
        a.timers b.timers;
    histograms =
      merge_assoc
        (fun name (wx, bx) (wy, by) ->
          if wx <> wy then
            invalid_arg
              (Printf.sprintf "Registry.merge: histogram %s bin widths differ" name);
          (wx, merge_bins bx by))
        a.histograms b.histograms;
  }

let merge = List.fold_left merge2 empty_snapshot

(* --- JSON --- *)

module Json = Dgs_util.Json

let int n = Json.Num (float_of_int n)
let obj f xs = Json.Obj (List.map (fun (k, v) -> (k, f v)) xs)
let counters_to_json s = Json.to_string (obj int s.counters)

let to_json s =
  let timer t =
    Json.Obj
      [
        ("count", int t.spans);
        ("total", Json.Num t.total_ns);
        ("max", Json.Num t.max_ns);
      ]
  in
  let hist (w, bins) =
    Json.Obj
      [
        ("bin_width", Json.Num w);
        ( "bins",
          Json.Arr (List.map (fun (lo, c) -> Json.Arr [ Json.Num lo; int c ]) bins) );
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", int 1);
         ("cores", int s.cores);
         ("jobs", match s.jobs with None -> Json.Null | Some j -> int j);
         ("counters", obj int s.counters);
         ("gauges", obj (fun v -> Json.Num v) s.gauges);
         ("timers_ns", obj timer s.timers);
         ("histograms", obj hist s.histograms);
       ])

(* --- Prometheus text exposition --- *)

let family name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

let to_prometheus s =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line fam kind =
    if not (Hashtbl.mem typed fam) then begin
      Hashtbl.replace typed fam ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam kind)
    end
  in
  Buffer.add_string buf
    (Printf.sprintf "# HELP dgs_host cores=%d jobs=%s\n" s.cores
       (match s.jobs with None -> "-" | Some j -> string_of_int j));
  List.iter
    (fun (name, n) ->
      type_line (family name) "counter";
      Buffer.add_string buf (Printf.sprintf "%s %d\n" name n))
    s.counters;
  List.iter
    (fun (name, v) ->
      type_line (family name) "gauge";
      Buffer.add_string buf (Printf.sprintf "%s %s\n" name (Json.num v)))
    s.gauges;
  List.iter
    (fun (name, t) ->
      type_line (family name) "summary";
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name t.spans);
      Buffer.add_string buf
        (Printf.sprintf "%s_total_ns %s\n" name (Json.num t.total_ns));
      Buffer.add_string buf
        (Printf.sprintf "%s_max_ns %s\n" name (Json.num t.max_ns)))
    s.timers;
  List.iter
    (fun (name, (w, bins)) ->
      type_line (family name) "histogram";
      let cum = ref 0 in
      List.iter
        (fun (lo, c) ->
          cum := !cum + c;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=%S} %d\n" name (Json.num (lo +. w)) !cum))
        bins;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name !cum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name !cum))
    s.histograms;
  Buffer.contents buf

(* --- reading a snapshot back --- *)

exception Bad

let snapshot_of_json line =
  let num = function Json.Num x -> x | _ -> raise Bad in
  let get k v = match Json.field k v with Some x -> x | None -> raise Bad in
  let objf k v =
    match Json.field k v with Some (Json.Obj o) -> o | None -> [] | _ -> raise Bad
  in
  let decode v =
    let timer t =
      {
        spans = int_of_float (num (get "count" t));
        total_ns = num (get "total" t);
        max_ns = num (get "max" t);
      }
    in
    let bin = function
      | Json.Arr [ Json.Num lo; Json.Num c ] -> (lo, int_of_float c)
      | _ -> raise Bad
    in
    let hist h =
      match get "bins" h with
      | Json.Arr bins -> (num (get "bin_width" h), List.map bin bins)
      | _ -> raise Bad
    in
    let each f k = List.map (fun (name, x) -> (name, f x)) (objf k v) in
    {
      cores =
        (match Json.field "cores" v with Some (Json.Num x) -> int_of_float x | _ -> 0);
      jobs =
        (match Json.field "jobs" v with
        | Some (Json.Num x) -> Some (int_of_float x)
        | _ -> None);
      counters = each (fun x -> int_of_float (num x)) "counters";
      gauges = each num "gauges";
      timers = each timer "timers_ns";
      histograms = each hist "histograms";
    }
  in
  match Json.of_string line with
  | Some (Json.Obj _ as v) -> ( try Some (decode v) with Bad -> None)
  | _ -> None
