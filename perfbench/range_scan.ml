(* range_scan: host-variable sweeps [PRICE >= :P] (Traffic template 0),
   total-time, over ORDERS with 50k rows through the default 256-block
   pool, about 23 times smaller than the table and its indexes.

   One operation is one sweep: [Retrieval.open_], fetch to exhaustion,
   [Retrieval.close].  Its latency spans all three; its first-row time
   runs from [open_] to the first delivered row. *)

open Rdb_engine
module R = Rdb_core.Retrieval
module Traffic = Rdb_workload.Traffic

let name = "range_scan"
let pass_s = 5.5
let setups = 2

type catalog = Table.t

let setup ~seed =
  let db = Rdb_workload.Datasets.fresh_db ~pool_capacity:256 () in
  Rdb_workload.Datasets.orders ~rows:50_000 ~seed:(Workload.derive seed 1) db

type t = { table : Table.t; specs : Traffic.spec array; oracle : Oracle.memo }

(* The pass: 80 sweeps of the host-variable template of [orders_mix].
   The thresholds are stratified, one drawn in each 80th of the price
   range and then shuffled, so that every seed sweeps a like share of
   the table: the seed changes the data, the thresholds and their
   order, not the amount of work. *)
let sweeps = 80
let price_max = 5000

let start ~seed table =
  let rng = Rdb_util.Prng.create ~seed:(Workload.derive seed 2) in
  let specs =
    Array.init sweeps (fun i ->
        let p = ((i * price_max) + Rdb_util.Prng.int rng price_max) / sweeps in
        {
          Traffic.label = Printf.sprintf "hostvar-price>=%d" p;
          pred = Predicate.param_cmp "PRICE" Predicate.Ge "P";
          env = [ ("P", Rdb_data.Value.int p) ];
          order_by = [];
          limit = None;
          fast_first = false;
        })
  in
  Rdb_util.Prng.shuffle rng specs;
  let oracle = Oracle.memo (Oracle.create table) in
  Array.iter
    (fun (sp : Traffic.spec) ->
      ignore (Oracle.expect oracle ~label:sp.Traffic.label sp.Traffic.pred sp.Traffic.env))
    specs;
  { table; specs; oracle }

(* Every pass starts from a cold pool and fresh adaptive statistics. *)
let prepare t ~traced:_ =
  Rdb_storage.Buffer_pool.flush (Table.pool t.table);
  Table.invalidate_stats t.table

let pool t = Table.pool t.table

let inputs_digest t =
  Workload.hex
    (String.concat "\n"
       (Array.to_list (Array.map (fun sp -> sp.Traffic.label) t.specs)
       @ [ string_of_int (Oracle.table_fingerprint t.oracle).Oracle.h1 ]))

let pass t m p tr =
  let config = Tracer.retrieval_config tr in
  Array.iter
    (fun (sp : Traffic.spec) ->
      match Measure.timed (fun () -> Queries.retrieve ?tr ~config t.table sp) with
      | (rows, s, first), ns, words ->
          let n = List.length rows in
          Measure.record m p ~ops:1 ~ns ~words ~rows:n ~cost:s.R.total_cost;
          Measure.latency p ns;
          if n > 0 then Measure.first_row p first;
          Option.iter
            (fun tr ->
              Tracer.note_summary tr s;
              Tracer.count tr "rows_received" n;
              if n > 0 then Tracer.observe tr "core.first_row" first)
            tr;
          Measure.check m sp.Traffic.label (fun () ->
              s.R.status = R.Completed
              && Oracle.agrees t.oracle ~label:sp.Traffic.label sp.Traffic.pred
                   sp.Traffic.env rows)
      | exception e -> Measure.fail m (sp.Traffic.label ^ ": " ^ Printexc.to_string e))
    t.specs;
  Measure.engine_heap p t.table

let layers t tr =
  ( Queries.core_metrics tr
    @ Queries.probes tr t.table (List.map Queries.bound (Array.to_list t.specs)),
    [
      ( "sum of summary.rows_delivered equals rows received",
        Tracer.get tr "summary_rows" = Tracer.get tr "rows_received" );
    ] )
