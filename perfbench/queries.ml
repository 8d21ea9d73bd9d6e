(* Single-table retrieval through [Retrieval], shared by the workloads:
   one query as the benchmark issues it, the layer probes that replay
   queries' index ranges, and the core metrics of the query spans. *)

open Rdb_engine
module R = Rdb_core.Retrieval
module Goal = Rdb_core.Goal
module Traffic = Rdb_workload.Traffic
module Cost = Rdb_storage.Cost
module Btree = Rdb_btree.Btree
module Estimate = Rdb_btree.Estimate
module Rid_list = Rdb_rid.Rid_list

let request_of (sp : Traffic.spec) =
  R.request ~env:sp.Traffic.env ~order_by:sp.Traffic.order_by
    ?explicit_goal:(if sp.Traffic.fast_first then Some Goal.Fast_first else None)
    sp.Traffic.pred

(* One retrieval: the rows (reversed), the summary, and the
   nanoseconds from [open_] to the first row (0 when none came).  With
   a tracer, [open_], each [fetch] and [close] are spans. *)
let retrieve ?tr ~config table (sp : Traffic.spec) =
  let t0 = Measure.now_ns () in
  let c =
    Tracer.span_opt tr "core.plan" (fun () -> R.open_ ~config table (request_of sp))
  in
  let fetch =
    match tr with
    | None -> fun () -> R.fetch c
    | Some tr ->
        let a = Tracer.acc tr "core.fetch" in
        fun () -> Tracer.span_acc tr a (fun () -> R.fetch c)
  in
  let limit = Option.value sp.Traffic.limit ~default:max_int in
  let first = ref 0 in
  let rec pull n acc =
    if n >= limit then acc
    else
      match fetch () with
      | None -> acc
      | Some r ->
          if n = 0 then first := Measure.now_ns () - t0;
          pull (n + 1) (r :: acc)
  in
  let rows = pull 0 [] in
  let s = Tracer.span_opt tr "core.close" (fun () -> R.close c) in
  Option.iter (fun tr -> Tracer.count tr "core.rows" (List.length rows)) tr;
  (rows, s, !first)

(* Bounded index ranges of a restriction, disjunct by disjunct: what
   the initial stage estimates and the scans walk. *)
let index_ranges table pred =
  let disjuncts = match pred with Predicate.Or ds -> ds | p -> [ p ] in
  List.concat_map
    (fun d ->
      List.filter_map
        (fun (idx : Table.index) ->
          let r = Range_extract.for_index d idx in
          if r.Range_extract.bounded then Some (idx.Table.tree, r.Range_extract.ranges)
          else None)
        (Table.indexes table))
    disjuncts

(* Layer probes, outside the timed operations: B-tree estimation and
   cursor steps and RID-list building over the bounded index ranges of
   [preds] (bound restrictions), and sequential heap scans. *)
let probes tr table preds =
  let pool = Table.pool table in
  let meter = Cost.create () in
  List.iter
    (fun pred ->
      List.iter
        (fun (tree, ranges) ->
          let e =
            Tracer.probe tr "btree.estimate" (fun () -> Estimate.ranges tree meter ranges)
          in
          Tracer.count tr "btree.estimate_nodes" e.Estimate.nodes_visited;
          let rids =
            Tracer.probe tr "btree.cursor" (fun () ->
                let c = Btree.multi_cursor tree meter ranges in
                let rec go acc =
                  match Btree.multi_next c with
                  | None -> acc
                  | Some (_, rid) -> go (rid :: acc)
                in
                go [])
          in
          let rids = Array.of_list (List.rev rids) in
          Tracer.count tr "rids" (Array.length rids);
          Tracer.probe tr "rid.build" (fun () ->
              let l = Rid_list.create pool meter in
              Array.iter (Rid_list.add l) rids;
              Rid_list.seal l;
              Rid_list.destroy l))
        (index_ranges table pred))
    preds;
  let heap = Table.heap table in
  for _ = 1 to 3 do
    Tracer.probe tr "storage.heap_scan" (fun () ->
        Rdb_storage.Heap_file.iter heap meter (fun _ _ -> ()));
    Tracer.count tr "heap_rows" (Rdb_storage.Heap_file.record_count heap)
  done;
  let per_rid name = Tracer.ratio (Tracer.span_ns tr name) (Tracer.get tr "rids") in
  let heap_rows = Tracer.get tr "heap_rows" in
  [
    ("btree.estimate_us", Tracer.span_mean tr "btree.estimate" ~scale:1e-3);
    ( "btree.estimate_nodes_per_op",
      Tracer.ratio
        (Tracer.get tr "btree.estimate_nodes")
        (float_of_int (List.length preds)) );
    ("btree.cursor_ns_per_entry", per_rid "btree.cursor");
    ("rid.list_build_ns_per_rid", per_rid "rid.build");
    ( "storage.heap_scan_ns_per_row",
      Tracer.ratio (Tracer.span_ns tr "storage.heap_scan") heap_rows );
    ( "storage.heap_scan_words_per_row",
      Tracer.ratio (Tracer.acc tr "storage.heap_scan").Tracer.words heap_rows );
  ]

let bound (sp : Traffic.spec) =
  Predicate.simplify (Predicate.bind sp.Traffic.pred sp.Traffic.env)

(* The core metrics of the [retrieve] spans. *)
let core_metrics tr =
  let rows = Tracer.get tr "core.rows" in
  [
    ("core.plan_us", Tracer.span_mean tr "core.plan" ~scale:1e-3);
    ("core.plan_words", Tracer.span_words tr "core.plan");
    ("core.first_row_us", Tracer.span_mean tr "core.first_row" ~scale:1e-3);
    ("core.close_us", Tracer.span_mean tr "core.close" ~scale:1e-3);
    ("core.close_words", Tracer.span_words tr "core.close");
    ("core.fetch_ns_per_row", Tracer.ratio (Tracer.span_ns tr "core.fetch") rows);
    ( "core.fetch_words_per_row",
      Tracer.ratio (Tracer.acc tr "core.fetch").Tracer.words rows );
  ]
