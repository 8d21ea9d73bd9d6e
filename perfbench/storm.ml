(* storm: [Traffic.storm] through the session scheduler, at the
   headline configuration of [bench -e storm].

   One operation of the closed loop is a whole storm: 256 arrivals
   (one wave of that experiment's 1024), all submitted up front and
   resolved by one [Session.run], open-loop in scheduler ticks on one
   OS thread.  A pass is ten such storms, each made from its own seed,
   and each from a cold pool and fresh statistics.
   [Session.run] exposes no per-submission wall clock, so a storm's
   latency sample is its wall time per resolved submission, and the
   first-row time is measured by replaying the storm's LIMIT probes
   one at a time after the storm, again from a cold pool.

   Shed and timed-out submissions are the scheduler's designed
   overload answers, not failures; they are reported in the traced
   run.  Failures are exceptions, aborted retrievals, broken
   accounting, and served rows that disagree with the oracle. *)

open Rdb_engine
module R = Rdb_core.Retrieval
module S = Rdb_core.Session
module Traffic = Rdb_workload.Traffic
module Datasets = Rdb_workload.Datasets
module Pool = Rdb_storage.Buffer_pool
module Cost = Rdb_storage.Cost

let name = "storm"
let arrivals = 256
let storms = 10
let pass_s = 7.5
let setups = 6

let config ?metrics retrieval =
  {
    S.default_config with
    S.max_inflight = 8;
    quantum = 12.0;
    max_queue = 12;
    shed_policy = S.Shed_largest_quota;
    pressure_threshold = 10;
    pool_shards = Some 8;
    record_events = false;
    retrieval;
    metrics;
  }

type catalog = { db : Database.t; table : Table.t }

let setup ~seed =
  let db = Datasets.fresh_db ~pool_capacity:96 () in
  { db; table = Datasets.orders ~rows:12_000 ~seed:(Workload.derive seed 1) db }

type t = { cat : catalog; oracle : Oracle.memo; storms : Traffic.arrival list array }

let start ~seed cat =
  let storms =
    Array.init storms (fun k ->
        Traffic.storm ~seed:(Workload.derive seed (2 + k)) ~count:arrivals ())
  in
  let oracle = Oracle.memo (Oracle.create ~bucket_on:[ "CUSTOMER"; "PRODUCT" ] cat.table) in
  Array.iter
    (List.iter (fun (a : Traffic.arrival) ->
         let sp = a.Traffic.spec in
         ignore
           (Oracle.expect oracle ~label:sp.Traffic.label ?limit:sp.Traffic.limit
              sp.Traffic.pred sp.Traffic.env)))
    storms;
  { cat; oracle; storms }

let pool t = Database.pool t.cat.db

(* Every storm, and the replays after it, starts from a cold pool and
   fresh adaptive statistics. *)
let reset t =
  Pool.flush (pool t);
  Table.invalidate_stats t.cat.table

let prepare _ ~traced:_ = ()

let inputs_digest t =
  Workload.hex
    (String.concat "\n"
       (List.concat_map
          (List.map (fun (a : Traffic.arrival) ->
               Printf.sprintf "%s@%d" a.Traffic.spec.Traffic.label a.Traffic.arrive_at))
          (Array.to_list t.storms)
       @ [ string_of_int (Oracle.table_fingerprint t.oracle).Oracle.h1 ]))

(* Submit every arrival, then resolve the storm. *)
let run_storm t tr storm =
  let metrics = Option.map (fun tr -> tr.Tracer.registry) tr in
  let cfg = config ?metrics (Tracer.retrieval_config tr) in
  let sched = S.create ~config:cfg t.cat.db in
  Tracer.span_opt tr "core.session.submit" (fun () ->
      List.iter
        (fun (a : Traffic.arrival) ->
          let sp = a.Traffic.spec in
          ignore
            (S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit
               ?quota:a.Traffic.quota ?deadline:a.Traffic.deadline
               ~arrive_at:a.Traffic.arrive_at t.cat.table (Queries.request_of sp)))
        storm);
  (sched, Tracer.span_opt tr "core.session.run" (fun () -> S.run sched))

let check_storm t m storm sched (report : S.report) =
  let p = report.S.pool in
  Measure.check m "storm accounting" (fun () ->
      p.S.p_served + p.S.p_shed + p.S.p_timed_out = p.S.p_submitted
      && p.S.p_submitted = arrivals);
  List.iter2
    (fun (a : Traffic.arrival) (s : S.session_stats) ->
      let sp = a.Traffic.spec in
      match (s.S.s_outcome, s.S.s_summary) with
      | S.Served, Some sum ->
          Measure.check m sp.Traffic.label (fun () ->
              (match sum.R.status with R.Aborted _ -> false | _ -> true)
              && Oracle.agrees t.oracle ~label:sp.Traffic.label ?limit:sp.Traffic.limit
                   sp.Traffic.pred sp.Traffic.env (S.rows_of sched s.S.s_id))
      | S.Lost _, _ -> Measure.fail m (sp.Traffic.label ^ ": lost without a crash point")
      | _ -> ())
    storm report.S.sessions

(* The storm's LIMIT probes, one at a time: time to the first row,
   checked like any served LIMIT query. *)
let replay_first_rows t m p tr storm =
  List.iter
    (fun (a : Traffic.arrival) ->
      let sp = a.Traffic.spec in
      if sp.Traffic.limit <> None then begin
        let rows, _, first =
          Queries.retrieve ?tr ~config:R.default_config t.cat.table sp
        in
        if rows <> [] then begin
          Measure.first_row p first;
          Option.iter (fun tr -> Tracer.observe tr "core.first_row" first) tr
        end;
        Measure.check m ("replay " ^ sp.Traffic.label) (fun () ->
            Oracle.agrees t.oracle ~label:sp.Traffic.label ?limit:sp.Traffic.limit
              sp.Traffic.pred sp.Traffic.env rows)
      end)
    storm

let one_storm t m p tr storm =
  reset t;
  let before = Cost.snapshot (Pool.global_meter (pool t)) in
  match Measure.timed (fun () -> run_storm t tr storm) with
  | (sched, report), ns, words ->
      let rows = List.fold_left (fun n s -> n + s.S.s_rows) 0 report.S.sessions in
      Measure.record m p ~ops:arrivals ~ns ~words ~rows
        ~cost:(Cost.since (Pool.global_meter (pool t)) before);
      Measure.latency p (ns / arrivals);
      (* the catalog, and the scheduler holding every served
         session's rows *)
      Measure.engine_heap p (t.cat, sched);
      Option.iter
        (fun tr ->
          let r = report.S.pool in
          Tracer.count tr "storms" 1;
          Tracer.count tr "grants" r.S.p_grants;
          Tracer.count tr "shed" r.S.p_shed;
          Tracer.count tr "timed_out" r.S.p_timed_out;
          List.iter
            (fun (s : S.session_stats) ->
              Tracer.count tr "degraded" (Bool.to_int s.S.s_degraded);
              Tracer.maximum tr "max_gap" (float_of_int s.S.s_max_gap);
              Tracer.sample tr "queue_wait" (float_of_int s.S.s_queue_wait);
              Option.iter
                (fun sum ->
                  Tracer.note_summary tr sum;
                  let rows = S.rows_of sched s.S.s_id in
                  Tracer.count tr "rows_received" (List.length rows))
                s.S.s_summary)
            report.S.sessions)
        tr;
      check_storm t m storm sched report;
      reset t;
      (match tr with
      | None -> replay_first_rows t m p None storm
      | Some tr -> Tracer.detached tr (fun () -> replay_first_rows t m p (Some tr) storm))
  | exception e -> Measure.fail m ("storm: " ^ Printexc.to_string e)

let pass t m p tr = Array.iter (one_storm t m p tr) t.storms

let layers t tr =
  let storms = Tracer.get tr "storms" in
  let per_storm name = Tracer.ratio (Tracer.get tr name) storms in
  let submitted = storms *. float_of_int arrivals in
  ( [
      ( "core.session.us_per_grant",
        Tracer.ratio
          (Tracer.span_ns tr "core.session.run" *. 1e-3)
          (Tracer.get tr "grants") );
      ( "core.session.submit_us",
        Tracer.ratio (Tracer.span_ns tr "core.session.submit" *. 1e-3) submitted );
      ("core.session.grants", per_storm "grants");
      ("core.session.queue_wait_p90", Tracer.percentile tr "queue_wait" 0.9);
      ("core.session.max_gap", Tracer.get tr "max_gap");
      ("core.session.degraded", per_storm "degraded");
      ("core.session.shed_per_op", Tracer.ratio (Tracer.get tr "shed") submitted);
      ( "core.session.timed_out_per_op",
        Tracer.ratio (Tracer.get tr "timed_out") submitted );
    ]
    @ Queries.core_metrics tr
    @ Queries.probes tr t.cat.table
        (List.filteri (fun i _ -> i < 200)
           (List.map
              (fun (a : Traffic.arrival) -> Queries.bound a.Traffic.spec)
              t.storms.(0))),
    [
      ( "sum of summary.rows_delivered equals rows received",
        Tracer.get tr "summary_rows" = Tracer.get tr "rows_received" );
    ] )
