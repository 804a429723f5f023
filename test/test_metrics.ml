(* Unit tests for the reporting helpers. *)

module Table = Dgs_metrics.Table
module Histogram = Dgs_metrics.Histogram

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  check "title present" true (String.length s > 0 && String.sub s 0 7 = "== demo");
  check "first row before second" true
    (Str_helpers.index_of s "1" < Str_helpers.index_of s "333")

let test_table_row_width () =
  let t = Table.create ~title:"x" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "short row" (Invalid_argument "Table.add_row: row width differs from header")
    (fun () -> Table.add_row t [ "only" ])

let test_table_cells () =
  check "float cell" true (Table.cell_float ~decimals:1 1.25 = "1.2" || Table.cell_float ~decimals:1 1.25 = "1.3");
  check "int cell" true (Table.cell_int 7 = "7");
  let s = Dgs_util.Stats.summarize [ 1.0; 3.0 ] in
  check "summary cell" true (Table.cell_summary s = "2.00 \xc2\xb1 1.41")

let test_table_csv () =
  let t = Table.create ~title:"t" ~columns:[ "x"; "y" ] in
  Table.add_row t [ "a,b"; "c" ];
  let csv = Table.to_csv t in
  check "header" true (String.length csv >= 4 && String.sub csv 0 3 = "x,y");
  check "quoting" true (Str_helpers.contains csv "\"a,b\"")

let test_table_row_count () =
  let t = Table.create ~title:"t" ~columns:[ "x" ] in
  check_int "empty" 0 (Table.row_count t);
  Table.add_rows t [ [ "1" ]; [ "2" ] ];
  check_int "two" 2 (Table.row_count t)

let test_histogram () =
  let h = Histogram.create () in
  List.iter (Histogram.add_int h) [ 1; 1; 2; 5 ];
  check_int "count" 4 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 2.25 (Histogram.mean h);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "bins"
    [ (1.0, 2); (2.0, 1); (5.0, 1) ]
    (Histogram.bins h);
  check "render has bars" true (Str_helpers.contains (Histogram.render h) "##")

let test_histogram_bin_width () =
  let h = Histogram.create ~bin_width:0.5 () in
  Histogram.add h 0.4;
  Histogram.add h 0.6;
  check_int "two bins" 2 (List.length (Histogram.bins h));
  Alcotest.check_raises "bad width" (Invalid_argument "Histogram.create: bin width must be positive")
    (fun () -> ignore (Histogram.create ~bin_width:0.0 ()))

let test_table_csv_edge_cases () =
  (* Every RFC-4180 special — comma, quote, newline, carriage return —
     must round into one quoted cell with doubled quotes. *)
  let t = Table.create ~title:"t" ~columns:[ "x"; "y" ] in
  Table.add_row t [ "say \"hi\""; "a\nb" ];
  Table.add_row t [ "cr\rlf"; "plain" ];
  let csv = Table.to_csv t in
  check "quotes doubled" true (Str_helpers.contains csv "\"say \"\"hi\"\"\"");
  check "newline cell quoted" true (Str_helpers.contains csv "\"a\nb\"");
  check "carriage return quoted" true (Str_helpers.contains csv "\"cr\rlf\"");
  check "plain cell untouched" true (Str_helpers.contains csv ",plain")

let test_histogram_render_empty () =
  let h = Histogram.create () in
  Alcotest.(check string) "empty histogram renders to nothing" "" (Histogram.render h);
  check_int "still zero observations" 0 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean of nothing is 0" 0.0 (Histogram.mean h)

let suite =
  [
    ("table render", `Quick, test_table_render);
    ("table row width check", `Quick, test_table_row_width);
    ("table cells", `Quick, test_table_cells);
    ("table csv quoting", `Quick, test_table_csv);
    ("table row count", `Quick, test_table_row_count);
    ("histogram", `Quick, test_histogram);
    ("histogram bin width", `Quick, test_histogram_bin_width);
    ("table csv edge cases", `Quick, test_table_csv_edge_cases);
    ("histogram render empty", `Quick, test_histogram_render_empty);
  ]
