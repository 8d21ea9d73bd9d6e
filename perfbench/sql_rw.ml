(* sql_rw: SQL text through the parser and executor over ORDERS and a
   50-row DRIVERS table, reads beside writes.

   Statements come in blocks of seven, shuffled within the block: an
   AND count on a customer outside the 40 hottest and a product, a
   LIMIT probe, a SUM over four days, a DRIVERS-ORDERS join on DAY, an
   INSERT, an UPDATE by CUSTOMER+DAY and a DELETE by
   CUSTOMER+PRODUCT.  Block [b] inserts row [r_b]; its UPDATE targets
   [r_(b-1)] and its DELETE [r_(b-2)], so every write touches a live
   row and maintains all four ORDERS indexes, while the table keeps
   its size.  A pass is 140 blocks on a fresh catalog.

   The benchmark keeps its own model of ORDERS: the loaded rows plus a
   replay of every write.  Each read is checked against the model as
   it stands after the writes before it, each write's reported row
   count against the model's, and at the end the heap's multiset
   against the model. *)

open Rdb_data
open Rdb_engine
module R = Rdb_core.Retrieval
module Ex = Rdb_sql.Executor
module Prng = Rdb_util.Prng
module Pool = Rdb_storage.Buffer_pool
module Cost = Rdb_storage.Cost

let name = "sql_rw"
let pass_s = 4.5
let setups = 2
let pass_blocks = 140
let rows = 50_000
let customers = 2000
let products = 500
let days = 365

type stmt =
  | Count_and of { c : int; p : int }
  | Limit_probe of { p : int; k : int }
  | Sum_days of { a : int; b : int }
  | Join of { q : int }
  | Insert of int array  (** ID, CUSTOMER, PRODUCT, DAY, PRICE, QTY *)
  | Update of { c : int; d : int; price : int; qty : int }
  | Delete of { c : int; p : int }

let kind = function
  | Count_and _ | Limit_probe _ | Sum_days _ -> "select"
  | Join _ -> "join"
  | Insert _ -> "insert"
  | Update _ -> "update"
  | Delete _ -> "delete"

let sql = function
  | Count_and { c; p } ->
      Printf.sprintf "SELECT COUNT(*) FROM ORDERS WHERE CUSTOMER = %d AND PRODUCT = %d" c
        p
  | Limit_probe { p; k } ->
      Printf.sprintf "SELECT * FROM ORDERS WHERE PRODUCT = %d LIMIT %d" p k
  | Sum_days { a; b } ->
      Printf.sprintf "SELECT SUM(PRICE) FROM ORDERS WHERE DAY BETWEEN %d AND %d" a b
  | Join { q } ->
      Printf.sprintf
        "SELECT COUNT(*) FROM DRIVERS, ORDERS WHERE DRIVERS.DAY = ORDERS.DAY AND \
         ORDERS.QTY <= %d"
        q
  | Insert r ->
      Printf.sprintf "INSERT INTO ORDERS VALUES (%s)"
        (String.concat ", " (Array.to_list (Array.map string_of_int r)))
  | Update { c; d; price; qty } ->
      Printf.sprintf
        "UPDATE ORDERS SET PRICE = %d, QTY = %d WHERE CUSTOMER = %d AND DAY = %d"
        price qty c d
  | Delete { c; p } ->
      Printf.sprintf "DELETE FROM ORDERS WHERE CUSTOMER = %d AND PRODUCT = %d" c p

(* The restriction a statement's ORDERS retrieval runs under. *)
let restriction stmt =
  let open Predicate in
  let i = Value.int in
  match stmt with
  | Count_and { c; p } -> Some (And [ "CUSTOMER" =% i c; "PRODUCT" =% i p ])
  | Limit_probe { p; _ } -> Some ("PRODUCT" =% i p)
  | Sum_days { a; b } -> Some (between "DAY" (i a) (i b))
  | Update { c; d; _ } -> Some (And [ "CUSTOMER" =% i c; "DAY" =% i d ])
  | Delete { c; p } -> Some (And [ "CUSTOMER" =% i c; "PRODUCT" =% i p ])
  | Join _ | Insert _ -> None

(* ---- the statement generator ----------------------------------------- *)

type gen = { rng : Prng.t; mutable block : int; inserted : (int, int array) Hashtbl.t }

let generator seed =
  {
    rng = Prng.create ~seed:(Workload.derive seed 4);
    block = 0;
    inserted = Hashtbl.create 64;
  }

let skewed rng n = Prng.int rng (1 + Prng.int rng n)

let next_block g =
  let rng = g.rng and b = g.block in
  g.block <- b + 1;
  let row =
    [|
      rows + b;
      1 + Prng.int rng customers;
      1 + Prng.int rng products;
      Prng.int rng days;
      10 + Prng.int rng 4990;
      1 + Prng.int rng 20;
    |]
  in
  Hashtbl.replace g.inserted b row;
  (* before r_(b-1) / r_(b-2) exist, target a random pair instead *)
  let target k =
    match Hashtbl.find_opt g.inserted (b - k) with Some r -> r | None -> row
  in
  let a = Prng.int rng days in
  let stmts =
    [|
      Count_and { c = 41 + Prng.int rng (customers - 40); p = 1 + Prng.int rng products };
      Limit_probe { p = skewed rng products; k = 5 + Prng.int rng 20 };
      Sum_days { a; b = min (days - 1) (a + 3) };
      Join { q = 1 + Prng.int rng 20 };
      Insert row;
      (let u = target 1 in
       Update
         {
           c = u.(1);
           d = u.(3);
           price = 10 + Prng.int rng 4990;
           qty = 1 + Prng.int rng 20;
         });
      (let d = target 2 in
       Delete { c = d.(1); p = d.(2) });
    |]
  in
  Prng.shuffle rng stmts;
  Array.to_list stmts

(* ---- the model of ORDERS --------------------------------------------- *)

let ints_of_row (r : Row.t) =
  Array.map
    (function Value.Int i -> i | v -> invalid_arg ("non-int " ^ Value.to_string v))
    r

let row_of_ints r = Array.map Value.int r

(* Slot [id] holds the row with that ID, or [||] before it is inserted
   and after it is deleted. *)
type model = int array array

let model_fold f (m : model) acc =
  Array.fold_left (fun acc r -> if Array.length r = 0 then acc else f r acc) acc m

let model_count m f = model_fold (fun r n -> if f r then n + 1 else n) m 0
let model_matches m f = model_fold (fun r acc -> if f r then r :: acc else acc) m []
let model_fingerprint m =
  model_fold (fun r acc -> Oracle.add acc (row_of_ints r)) m Oracle.empty

(* ---- the workload ------------------------------------------------------ *)

type catalog = { db : Database.t; orders : Table.t; shifts : int list }

let setup ~seed =
  let db = Rdb_workload.Datasets.fresh_db ~pool_capacity:256 () in
  let orders = Rdb_workload.Datasets.orders ~rows ~seed:(Workload.derive seed 1) db in
  (* shifts: four on each of 10 days spread over the year, and
     10 on days past its end (empty probes, cancelled at estimation).
     Every day holds about the same number of orders whatever the seed,
     so each join does a like amount of work: 20 probes, the rest
     memoized *)
  let shifts =
    List.init 50 (fun i -> if i < 40 then 18 + (36 * (i mod 10)) else days + i)
  in
  ignore (Ex.execute_sql db "CREATE TABLE DRIVERS (DAY INT, TAG STRING)");
  ignore
    (Ex.execute_sql db
       ("INSERT INTO DRIVERS VALUES "
       ^ String.concat ", "
           (List.mapi (fun i d -> Printf.sprintf "(%d, 'shift%03d')" d i) shifts)));
  { db; orders; shifts }

type t = {
  seed : int;
  stmts : stmt array;  (** the pass *)
  initial : model;  (** ORDERS as loaded *)
  mutable cat : catalog;
  mutable fresh : bool;  (** [cat] has not run a pass yet *)
  mutable model : model;
  mutable twin : Table.t option;  (** the traced passes' engine-layer replay table *)
  mutable probed : Predicate.t list;  (** restrictions of the first traced statements *)
}

let start ~seed cat =
  let initial = Array.make (rows + pass_blocks) [||] in
  Array.iter
    (fun r ->
      let r = ints_of_row r in
      initial.(r.(0)) <- r)
    (Oracle.heap_rows cat.orders);
  let gen = generator seed in
  let stmts =
    Array.of_list (List.concat (List.init pass_blocks (fun _ -> next_block gen)))
  in
  { seed; stmts; initial; cat; fresh = true; model = initial; twin = None; probed = [] }

let pool t = Database.pool t.cat.db

(* Every pass starts from a fresh catalog with a cold pool, and a
   traced pass also from a fresh twin. *)
let prepare t ~traced =
  if not t.fresh then t.cat <- setup ~seed:t.seed;
  t.fresh <- false;
  Pool.flush (pool t);
  t.model <- Array.copy t.initial;
  t.twin <-
    (if traced then
       Some
         (Rdb_workload.Datasets.orders ~rows ~seed:(Workload.derive t.seed 1)
            (Rdb_workload.Datasets.fresh_db ~pool_capacity:256 ()))
     else None)

let inputs_digest t =
  Workload.hex
    (String.concat "\n"
       (Array.to_list (Array.map sql t.stmts)
       @ List.map string_of_int
           ((model_fingerprint t.initial).Oracle.h1 :: t.cat.shifts)))

let message_count msg =
  match String.split_on_char ' ' (Option.value msg ~default:"") with
  | n :: _ -> int_of_string_opt n
  | [] -> None

let single = function [ [ v ] ] -> Some v | _ -> None

(* Check [res] against the model, then apply a write to the model. *)
let check_and_apply t stmt (res : Ex.result) =
  let m = t.model in
  let count_is n = single res.Ex.rows = Some (Value.int n) in
  match stmt with
  | Count_and { c; p } -> count_is (model_count m (fun r -> r.(1) = c && r.(2) = p))
  | Sum_days { a; b } -> (
      let sum =
        model_fold (fun r s -> if r.(3) >= a && r.(3) <= b then s + r.(4) else s) m 0
      in
      let any = model_count m (fun r -> r.(3) >= a && r.(3) <= b) > 0 in
      match single res.Ex.rows with
      | Some Value.Null -> not any
      | Some v -> any && v = Value.int sum
      | None -> false)
  | Join { q } ->
      let per_day = Hashtbl.create 64 in
      List.iter
        (fun d ->
          let n = Option.value ~default:0 (Hashtbl.find_opt per_day d) in
          Hashtbl.replace per_day d (n + 1))
        t.cat.shifts;
      count_is
        (model_fold
           (fun r n ->
             if r.(5) > q then n
             else n + Option.value ~default:0 (Hashtbl.find_opt per_day r.(3)))
           m 0)
  | Limit_probe { p; k } ->
      let answer =
        List.map row_of_ints (model_matches m (fun r -> r.(2) = p))
      in
      Oracle.limited_subset ~limit:k ~answer (List.map Array.of_list res.Ex.rows)
  | Insert r ->
      m.(r.(0)) <- Array.copy r;
      message_count res.Ex.message = Some 1
  | Update { c; d; price; qty } ->
      let hits = model_matches m (fun r -> r.(1) = c && r.(3) = d) in
      List.iter
        (fun r ->
          let r = Array.copy r in
          r.(4) <- price;
          r.(5) <- qty;
          m.(r.(0)) <- r)
        hits;
      message_count res.Ex.message = Some (List.length hits)
  | Delete { c; p } ->
      let hits = model_matches m (fun r -> r.(1) = c && r.(2) = p) in
      List.iter (fun r -> m.(r.(0)) <- [||]) hits;
      message_count res.Ex.message = Some (List.length hits)

(* The engine-layer replay: the same write straight through [Table] on
   a twin of ORDERS in its own catalog.  RID lookup is untimed. *)
let replay_twin tr twin stmt =
  let pairs pred =
    let c = R.open_ twin (R.request pred) in
    let ps = R.drain_pairs c in
    ignore (R.close c);
    ps
  in
  let eq col v = Predicate.( =% ) col (Value.int v) in
  match stmt with
  | Insert r ->
      Tracer.probe tr "engine.insert" (fun () ->
          ignore (Table.insert twin (row_of_ints r)))
  | Update { c; d; price; qty } ->
      let ps = pairs (Predicate.And [ eq "CUSTOMER" c; eq "DAY" d ]) in
      Tracer.probe tr "engine.update" (fun () ->
          List.iter
            (fun (rid, row) ->
              let row = Array.copy row in
              row.(4) <- Value.int price;
              row.(5) <- Value.int qty;
              ignore (Table.update twin rid row))
            ps)
  | Delete { c; p } ->
      let ps = pairs (Predicate.And [ eq "CUSTOMER" c; eq "PRODUCT" p ]) in
      Tracer.probe tr "engine.delete" (fun () ->
          List.iter (fun (rid, _) -> ignore (Table.delete twin rid)) ps)
  | _ -> ()

let pass t m p tr =
  let cfg = Tracer.retrieval_config tr in
  let db = t.cat.db and pool = pool t in
  Array.iter
    (fun stmt ->
      let text = sql stmt in
      let before = Cost.snapshot (Pool.global_meter pool) in
      let run () =
        let ast =
          Tracer.span_opt tr "sql.parse" (fun () -> Rdb_sql.Parser.parse_statement text)
        in
        Tracer.span_opt tr ("sql.execute." ^ kind stmt) (fun () ->
            Ex.execute ~config:cfg db ast)
      in
      match Measure.timed run with
      | res, ns, words ->
          let rows =
            List.fold_left (fun n (_, s) -> n + s.R.rows_delivered) 0 res.Ex.summaries
          in
          Measure.record m p ~ops:1 ~ns ~words ~rows
            ~cost:(Cost.since (Pool.global_meter pool) before);
          Measure.latency p ns;
          (* the executor materializes: a LIMIT probe's first row
             arrives with its result *)
          (match stmt with Limit_probe _ -> Measure.first_row p ns | _ -> ());
          Option.iter
            (fun tr ->
              List.iter (fun (_, s) -> Tracer.note_summary tr s) res.Ex.summaries;
              Tracer.count tr "statements" 1;
              Tracer.count tr "retrievals" (List.length res.Ex.summaries);
              (match restriction stmt with
              | Some r when List.length t.probed < 200 -> t.probed <- r :: t.probed
              | _ -> ());
              Option.iter (fun twin -> replay_twin tr twin stmt) t.twin)
            tr;
          Measure.check m text (fun () -> check_and_apply t stmt res)
      | exception e -> Measure.fail m (text ^ ": " ^ Printexc.to_string e))
    t.stmts;
  Measure.engine_heap p t.cat.db;
  Measure.check m "final ORDERS multiset" (fun () ->
      Oracle.heap_fingerprint t.cat.orders = model_fingerprint t.model)

let layers t tr =
  let mean_us span = Tracer.span_mean tr span ~scale:1e-3 in
  let exec k = ("sql.execute_us." ^ k, mean_us ("sql.execute." ^ k)) in
  let engine k = ("engine." ^ k ^ "_us", mean_us ("engine." ^ k)) in
  let twin_matches =
    match t.twin with
    | Some twin -> Oracle.heap_fingerprint twin = model_fingerprint t.model
    | None -> false
  in
  ( [
      ("sql.parse_us", Tracer.span_mean tr "sql.parse" ~scale:1e-3);
      exec "select";
      exec "join";
      exec "insert";
      exec "update";
      exec "delete";
      ( "sql.retrievals_per_stmt",
        Tracer.ratio (Tracer.get tr "retrievals") (Tracer.get tr "statements") );
      engine "insert";
      engine "update";
      engine "delete";
    ]
    @ Queries.probes tr t.cat.orders (List.rev t.probed),
    [ ("twin replay through Table matches the SQL-side model", twin_matches) ] )
