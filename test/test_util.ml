(* Unit tests for Dgs_util: rng, pqueue, stats, geometry, json. *)

module Rng = Dgs_util.Rng
module Pqueue = Dgs_util.Pqueue
module Stats = Dgs_util.Stats
module Geom = Dgs_util.Geom
module Json = Dgs_util.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- rng --- *)

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let sa = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check "different seeds differ" true (sa <> sb)

let test_int_bounds () =
  let t = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int t 17 in
    check "in range" true (x >= 0 && x < 17)
  done

let test_int_in_bounds () =
  let t = Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Rng.int_in t (-5) 5 in
    check "in inclusive range" true (x >= -5 && x <= 5)
  done

let test_int_covers_values () =
  let t = Rng.create 5 in
  let seen = Array.make 4 false in
  for _ = 1 to 500 do
    seen.(Rng.int t 4) <- true
  done;
  Array.iteri (fun i b -> check (Printf.sprintf "value %d reached" i) true b) seen

let test_float_bounds () =
  let t = Rng.create 6 in
  for _ = 1 to 1000 do
    let x = Rng.float t 2.5 in
    check "float in range (regression: 1 lsl 62 overflow)" true (x >= 0.0 && x < 2.5)
  done

let test_bernoulli_rates () =
  let t = Rng.create 8 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli t 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  check "bernoulli ~0.3" true (rate > 0.27 && rate < 0.33)

let test_bernoulli_extremes () =
  let t = Rng.create 9 in
  for _ = 1 to 100 do
    check "p=0 never" false (Rng.bernoulli t 0.0)
  done;
  for _ = 1 to 100 do
    check "p=1 always" true (Rng.bernoulli t 1.0)
  done

let test_split_independence () =
  let t = Rng.create 10 in
  let u = Rng.split t in
  let su = List.init 10 (fun _ -> Rng.int u 1000) in
  let st = List.init 10 (fun _ -> Rng.int t 1000) in
  check "split streams differ" true (su <> st)

let test_copy_preserves () =
  let t = Rng.create 11 in
  ignore (Rng.int t 5);
  let c = Rng.copy t in
  check_int "copy continues identically" (Rng.int t 10_000) (Rng.int c 10_000)

let test_gaussian_moments () =
  let t = Rng.create 12 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Rng.gaussian t ~mu:3.0 ~sigma:2.0) in
  let mean = Stats.mean xs in
  let sd = Stats.stddev xs in
  check "gaussian mean" true (abs_float (mean -. 3.0) < 0.1);
  check "gaussian sd" true (abs_float (sd -. 2.0) < 0.1)

let test_shuffle_permutes () =
  let t = Rng.create 14 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_permutation () =
  let t = Rng.create 15 in
  let p = Rng.permutation t 30 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation of 0..29" (Array.init 30 (fun i -> i)) sorted

let test_pick () =
  let t = Rng.create 16 in
  for _ = 1 to 100 do
    check "pick member" true (List.mem (Rng.pick t [| 1; 2; 3 |]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick t [||]))

let test_invalid_args () =
  let t = Rng.create 17 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in t 3 2))

(* The one probability check: the closed unit interval passes, anything
   else — NaN and the infinities included — names its caller. *)
let test_check_rate () =
  List.iter (Rng.check_rate "Test: p") [ 0.0; 0.25; 1.0 ];
  List.iter
    (fun p ->
      Alcotest.check_raises (Printf.sprintf "%h rejected" p)
        (Invalid_argument "Test: p out of [0,1]") (fun () -> Rng.check_rate "Test: p" p))
    [ -0.5; 1.5; Float.nan; Float.infinity; Float.neg_infinity; -0.0 -. epsilon_float ]

(* --- pqueue --- *)

let drain q =
  let rec go acc =
    match Pqueue.pop_if q (fun _ -> true) with
    | None -> List.rev acc
    | Some (k, _) -> go (k :: acc)
  in
  go []

let test_pqueue_order () =
  let q = Pqueue.create ~cmp:compare in
  List.iter (fun k -> Pqueue.add q k (string_of_int k)) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] (drain q)

let test_pqueue_random_vs_sort () =
  let rng = Rng.create 18 in
  let q = Pqueue.create ~cmp:compare in
  let keys = List.init 500 (fun _ -> Rng.int rng 1000) in
  List.iter (fun k -> Pqueue.add q k ()) keys;
  Alcotest.(check (list int)) "matches sort" (List.sort compare keys) (drain q)

let test_pqueue_pop_if () =
  let q = Pqueue.create ~cmp:compare in
  check "empty" true (Pqueue.pop_if q (fun _ -> true) = None);
  List.iter (fun k -> Pqueue.add q k k) [ 3; 1; 2 ];
  check "pred rejects min: nothing removed" true
    (Pqueue.pop_if q (fun k -> k > 1) = None);
  check "pred accepts min" true (Pqueue.pop_if q (fun k -> k <= 1) = Some (1, 1));
  check "next min" true (Pqueue.pop_if q (fun k -> k <= 2) = Some (2, 2));
  Alcotest.(check (list int)) "rest" [ 3 ] (drain q)

(* --- stats --- *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "empty mean" 0.0 (Stats.mean [])

let test_stats_stddev () =
  check_float "sd of constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "sd pair" (sqrt 2.0) (Stats.stddev [ 1.0; 3.0 ]);
  check_float "single" 0.0 (Stats.stddev [ 42.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (Stats.percentile 0.0 xs);
  check_float "p50" 3.0 (Stats.percentile 0.5 xs);
  check_float "p100" 5.0 (Stats.percentile 1.0 xs);
  check_float "p25 interpolates" 2.0 (Stats.percentile 0.25 xs);
  check_float "unsorted input" 3.0 (Stats.percentile 0.5 [ 5.0; 1.0; 3.0; 2.0; 4.0 ])

let test_stats_summary () =
  let s = Stats.summarize [ 2.0; 4.0; 6.0 ] in
  check_int "count" 3 s.Stats.count;
  check_float "mean" 4.0 s.Stats.mean;
  check_float "min" 2.0 s.Stats.min;
  check_float "max" 6.0 s.Stats.max;
  check_float "median" 4.0 s.Stats.median

(* --- geom --- *)

let test_geom_dist () =
  check_float "3-4-5" 5.0 (Geom.dist (Geom.make 0.0 0.0) (Geom.make 3.0 4.0));
  check_float "dist2" 25.0 (Geom.dist2 (Geom.make 0.0 0.0) (Geom.make 3.0 4.0))

let test_geom_algebra () =
  let p = Geom.add (Geom.make 1.0 2.0) (Geom.make 3.0 4.0) in
  check_float "add x" 4.0 p.Geom.x;
  check_float "add y" 6.0 p.Geom.y;
  let q = Geom.scale 2.0 (Geom.make 1.5 (-1.0)) in
  check_float "scale x" 3.0 q.Geom.x;
  check_float "scale y" (-2.0) q.Geom.y

let test_geom_normalize () =
  let u = Geom.normalize (Geom.make 3.0 4.0) in
  check_float "unit norm" 1.0 (Geom.norm u);
  let z = Geom.normalize Geom.origin in
  check_float "origin stays" 0.0 (Geom.norm z)

let test_geom_lerp_clamp () =
  let m = Geom.lerp (Geom.make 0.0 0.0) (Geom.make 10.0 20.0) 0.5 in
  check_float "lerp x" 5.0 m.Geom.x;
  check_float "lerp y" 10.0 m.Geom.y;
  let c = Geom.clamp_box (Geom.make (-1.0) 15.0) ~xmax:10.0 ~ymax:10.0 in
  check_float "clamp x" 0.0 c.Geom.x;
  check_float "clamp y" 10.0 c.Geom.y

(* --- json --- *)

(* Finite doubles: raw bit patterns (non-finite ones folded to 0), the
   subnormal range, short decimals, sums of decimals (timestamps like
   [0.1 +. 0.2]) and integers past 1e15. *)
let subnormal_mask = 0x800F_FFFF_FFFF_FFFFL

let gen_finite =
  QCheck.Gen.(
    map
      (fun x -> if Float.is_finite x then x else 0.0)
      (frequency
         [
           (3, map Int64.float_of_bits int64);
           (1, map (fun b -> Int64.float_of_bits (Int64.logand b subnormal_mask)) int64);
           (1, map (fun n -> float_of_int n /. 100.0) (int_range (-100_000) 100_000));
           ( 1,
             map2
               (fun a b -> (float_of_int a *. 0.1) +. (float_of_int b *. 0.4))
               small_nat small_nat );
           (1, map float_of_int int);
         ]))

let prop_json_num_exact =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"json num reads back exactly" ~count:2000
       (QCheck.make ~print:(Printf.sprintf "%h") gen_finite)
       (fun x ->
         let s = Json.num x and s15 = Printf.sprintf "%.15g" x in
         Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float x)
         && Json.of_string s = Some (Json.Num x)
         (* the rule prefers 15 digits whenever they read back *)
         && (Float.is_integer x || float_of_string s15 <> x || s = s15)))

let gen_json =
  let open QCheck.Gen in
  let special = oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '\127'; '\200' ] in
  let str = string_size ~gen:(frequency [ (3, printable); (1, special) ]) (int_bound 6) in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun x -> Json.Num x) gen_finite;
               map (fun s -> Json.Str s) str;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n - 1))));
               (1, map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair str (self (n - 1)))))
             ])

let prop_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"json of_string inverts to_string" ~count:500
       (QCheck.make ~print:Json.to_string gen_json)
       (fun v -> Json.of_string (Json.to_string v) = Some v))

let test_json_rejects () =
  List.iter
    (fun (what, s) -> check (what ^ " rejected") true (Json.of_string s = None))
    [
      ("trailing garbage", {|{"a":1} x|});
      ("unterminated string", {|"abc|});
      ("bad escape", {|"a\qb"|});
      ("non-ASCII \\u escape", {|"\u0080"|});
      ("bare nan", "nan");
      ("empty input", " ");
    ];
  check "surrounding whitespace accepted" true
    (Json.of_string " \n[1, -2.5e3]\t"
    = Some (Json.Arr [ Json.Num 1.0; Json.Num (-2500.0) ]));
  check "ASCII \\u escape accepted" true
    (Json.of_string {|"\u0041\/"|} = Some (Json.Str "A/"))

let suite =
  [
    ("rng determinism", `Quick, test_determinism);
    ("rng seed sensitivity", `Quick, test_seed_sensitivity);
    ("rng int bounds", `Quick, test_int_bounds);
    ("rng int_in bounds", `Quick, test_int_in_bounds);
    ("rng int covers all values", `Quick, test_int_covers_values);
    ("rng float bounds", `Quick, test_float_bounds);
    ("rng bernoulli rate", `Quick, test_bernoulli_rates);
    ("rng bernoulli extremes", `Quick, test_bernoulli_extremes);
    ("rng split independence", `Quick, test_split_independence);
    ("rng copy", `Quick, test_copy_preserves);
    ("rng gaussian moments", `Quick, test_gaussian_moments);
    ("rng shuffle permutes", `Quick, test_shuffle_permutes);
    ("rng permutation", `Quick, test_permutation);
    ("rng pick", `Quick, test_pick);
    ("rng invalid args", `Quick, test_invalid_args);
    ("rng check_rate rejects NaN and out-of-range rates", `Quick, test_check_rate);
    ("pqueue ordered drain", `Quick, test_pqueue_order);
    ("pqueue random vs sort", `Quick, test_pqueue_random_vs_sort);
    ("pqueue pop_if", `Quick, test_pqueue_pop_if);
    ("stats mean", `Quick, test_stats_mean);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats summary", `Quick, test_stats_summary);
    ("geom dist", `Quick, test_geom_dist);
    ("geom algebra", `Quick, test_geom_algebra);
    ("geom normalize", `Quick, test_geom_normalize);
    ("geom lerp/clamp", `Quick, test_geom_lerp_clamp);
    prop_json_num_exact;
    prop_json_roundtrip;
    ("json rejects malformed input", `Quick, test_json_rejects);
  ]
