(* Domain pool (Sc_parallel) and multi-domain telemetry: equivalence
   with the sequential combinators, exact counters under concurrent
   increment, and 1-vs-N value identity of the rewired hot paths.

   Every case restores the configured domain count on exit so the rest
   of the suite keeps its default behavior. *)

module Telemetry = Sc_telemetry.Telemetry
module Mc = Sc_sim.Montecarlo

let with_domains n f =
  let saved = Sc_parallel.domain_count () in
  Sc_parallel.set_domain_count n;
  Fun.protect ~finally:(fun () -> Sc_parallel.set_domain_count saved) f

let pool_tests =
  let open Util in
  [
    case "parallel_map equals List.map at 4 domains" (fun () ->
        with_domains 4 (fun () ->
            let xs = List.init 1000 (fun i -> i) in
            check
              Alcotest.(list int)
              "squares"
              (List.map (fun x -> x * x) xs)
              (Sc_parallel.parallel_map (fun x -> x * x) xs)));
    case "iter_ranges covers [0, n) exactly once" (fun () ->
        with_domains 4 (fun () ->
            let n = 10_007 in
            let hits = Array.make n 0 in
            (* Chunks are disjoint, so unsynchronized writes are safe. *)
            Sc_parallel.iter_ranges n (fun lo hi ->
                for i = lo to hi - 1 do
                  hits.(i) <- hits.(i) + 1
                done);
            check Alcotest.bool "each index once" true
              (Array.for_all (fun h -> h = 1) hits)));
    case "nested fan-out completes (helping waiters)" (fun () ->
        with_domains 3 (fun () ->
            let outer =
              Sc_parallel.parallel_map
                (fun i ->
                  List.fold_left ( + ) 0
                    (Sc_parallel.parallel_map (fun j -> i * j) [ 1; 2; 3; 4 ]))
                (List.init 20 Fun.id)
            in
            check
              Alcotest.(list int)
              "nested" (List.init 20 (fun i -> 10 * i)) outer));
    case "worker exception propagates to the caller" (fun () ->
        with_domains 4 (fun () ->
            match
              Sc_parallel.parallel_map
                (fun i -> if i = 17 then failwith "boom" else i)
                (List.init 64 Fun.id)
            with
            | _ -> Alcotest.fail "expected Failure"
            | exception Failure m -> check Alcotest.string "message" "boom" m));
    case "empty and singleton inputs" (fun () ->
        with_domains 4 (fun () ->
            check Alcotest.(list int) "empty" []
              (Sc_parallel.parallel_map Fun.id []);
            check Alcotest.(list int) "singleton" [ 9 ]
              (Sc_parallel.parallel_map (fun x -> x + 8) [ 1 ])))
  ]

let telemetry_tests =
  let open Util in
  [
    case "hammer: N domains x M increments lands exactly N*M" (fun () ->
        let c = Telemetry.counter "test.parallel.hammer" in
        Telemetry.reset_counter c;
        let n_domains = 4 and m = 25_000 in
        let body () =
          for _ = 1 to m do
            Telemetry.incr c
          done
        in
        let workers =
          List.init (n_domains - 1) (fun _ -> Domain.spawn body)
        in
        body ();
        List.iter Domain.join workers;
        check Alcotest.int "exact count" (n_domains * m) (Telemetry.value c));
    case "hammer: concurrent add and histogram observe stay exact" (fun () ->
        let c = Telemetry.counter "test.parallel.hammer_add" in
        let h = Telemetry.histogram "test.parallel.hammer_hist" in
        Telemetry.reset_counter c;
        let m = 10_000 in
        let body () =
          for i = 1 to m do
            Telemetry.add c 3;
            Telemetry.observe h (float_of_int (i mod 100))
          done
        in
        let h0 =
          match Telemetry.find "test.parallel.hammer_hist" with
          | Some (Telemetry.Histogram s) -> s.Telemetry.count
          | _ -> 0
        in
        let workers = List.init 3 (fun _ -> Domain.spawn body) in
        body ();
        List.iter Domain.join workers;
        check Alcotest.int "adds exact" (4 * m * 3) (Telemetry.value c);
        match Telemetry.find "test.parallel.hammer_hist" with
        | Some (Telemetry.Histogram s) ->
          check Alcotest.int "observations exact" (h0 + (4 * m))
            s.Telemetry.count
        | _ -> Alcotest.fail "histogram missing");
    case "pool workers increment through the registry exactly" (fun () ->
        with_domains 4 (fun () ->
            let c = Telemetry.counter "test.parallel.pool_incr" in
            Telemetry.reset_counter c;
            Sc_parallel.parallel_iter
              (fun _ -> Telemetry.incr c)
              (List.init 50_000 Fun.id);
            check Alcotest.int "exact" 50_000 (Telemetry.value c)));
    case "worker spans join the submitting span's trace" (fun () ->
        with_domains 4 (fun () ->
            let lines = ref [] in
            let lock = Mutex.create () in
            Telemetry.set_sink
              (Some
                 (fun l ->
                   Mutex.lock lock;
                   lines := l :: !lines;
                   Mutex.unlock lock));
            Fun.protect
              ~finally:(fun () -> Telemetry.set_sink None)
              (fun () ->
                Telemetry.with_span ~name:"fanout.root" (fun () ->
                    Sc_parallel.parallel_iter ~min_chunk:1
                      (fun _ ->
                        Telemetry.with_span ~name:"fanout.task" Fun.id)
                      (List.init 64 Fun.id)));
            let spans =
              List.filter_map Sc_telemetry.Trace_analysis.span_of_line !lines
            in
            let module A = Sc_telemetry.Trace_analysis in
            let root =
              List.find (fun (s : A.span) -> s.A.name = "fanout.root") spans
            in
            let tasks =
              List.filter (fun (s : A.span) -> s.A.name = "fanout.task") spans
            in
            check Alcotest.int "all tasks emitted" 64 (List.length tasks);
            List.iter
              (fun (s : A.span) ->
                check Alcotest.string "task joins root trace" root.A.trace
                  s.A.trace;
                check Alcotest.(option int) "task parented on root"
                  (Some root.A.id) s.A.parent)
              tasks;
            check Alcotest.int "no spans left open" 0 (Telemetry.open_spans ())));
  ]

(* 1-domain vs N-domain value identity of the rewired hot paths. *)
let identity_tests =
  let open Util in
  [
    case "Monte-Carlo campaign identical at 1 and 4 domains" (fun () ->
        let run d =
          with_domains d (fun () ->
              let drbg = Sc_hash.Drbg.create ~seed:"par-mc" in
              let r =
                Mc.combined_experiment ~drbg ~csc:0.5 ~ssc:0.5 ~range:2.0
                  ~sig_forge:0.0 ~t:6 ~trials:20_000
              in
              r.Mc.survived)
        in
        check Alcotest.int "same survivals" (run 1) (run 4));
    case "audit verdicts and counter ledger identical at 1 and 4 domains"
      (fun () ->
        let module Protocol = Sc_audit.Protocol in
        let module Batch = Sc_audit.Batch in
        let module Executor = Sc_compute.Executor in
        (* The audit suite's fixture: 16 honest tasks over 20 blocks. *)
        let pub = Test_audit.pub and da_key = Test_audit.da_key in
        let make_job tag =
          let execution = Test_audit.setup_execution () in
          let commitment = Protocol.commitment_of_execution execution in
          let challenge =
            Protocol.make_challenge
              ~drbg:(Sc_hash.Drbg.create ~seed:("par-chal:" ^ tag))
              ~n_tasks:commitment.Protocol.n_tasks ~samples:8
              ~warrant:(Test_audit.warrant ())
          in
          let responses =
            Option.get (Protocol.respond pub ~now:1.0 execution challenge)
          in
          { Batch.owner = "alice"; commitment; challenge; responses }
        in
        let jobs = List.map make_job [ "a"; "b"; "c"; "d" ] in
        (* Job "b" answers its first sample with corrupted data and
           leaves its last unanswered: both fail, in challenge order. *)
        let job_b = List.nth jobs 1 in
        let samples = job_b.Batch.challenge.Protocol.sample_indices in
        let corrupted = List.hd samples
        and missing = List.nth samples (List.length samples - 1) in
        let tamper (r : Executor.response) =
          match r.Executor.read with
          | _ when r.Executor.task_index = missing -> None
          | Some read when r.Executor.task_index = corrupted ->
            let claimed =
              {
                read.Sc_storage.Server.claimed with
                Sc_storage.Block.data = Sc_storage.Block.encode_ints [ 99 ];
              }
            in
            Some { r with Executor.read = Some { read with claimed } }
          | Some _ | None -> Some r
        in
        let job_b =
          {
            job_b with
            Batch.responses = List.filter_map tamper job_b.Batch.responses;
          }
        in
        let jobs = List.mapi (fun j job -> if j = 1 then job_b else job) jobs in
        let verdicts () =
          List.map
            (fun (job : Batch.job) ->
              Protocol.verify pub ~verifier_key:da_key ~role:`Da
                ~owner:job.Batch.owner job.Batch.commitment job.Batch.challenge
                job.Batch.responses)
            jobs
          @ [ Batch.verify_jobs pub ~verifier_key:da_key ~role:`Da jobs ]
        in
        let show (v : Protocol.verdict) =
          string_of_bool v.Protocol.valid
          :: List.map (Format.asprintf "%a" Protocol.pp_failure)
               v.Protocol.failures
        in
        let ledger_counters =
          [
            "audit.samples_checked";
            "audit.blocks_recomputed";
            "pairing.count";
            "hash.sha256.digests";
          ]
        in
        let run d =
          with_domains d (fun () ->
              let before = List.map Telemetry.counter_value ledger_counters in
              let vs = List.map show (verdicts ()) in
              ( vs,
                List.map2
                  (fun name v0 -> name, Telemetry.counter_value name - v0)
                  ledger_counters before ))
        in
        let v1, l1 = run 1 in
        let v4, l4 = run 4 in
        let expected_failure f =
          let shown = Format.asprintf "%a" Protocol.pp_failure f in
          if not (List.mem shown (List.nth v1 1)) then
            Alcotest.failf "job b lacks %s" shown
        in
        expected_failure (Protocol.Computing_wrong corrupted);
        expected_failure (Protocol.Missing_response missing);
        check Alcotest.(list (list string)) "verdicts" v1 v4;
        check Alcotest.(list (pair string int)) "counter ledger" l1 l4);
  ]

let suite = pool_tests @ telemetry_tests @ identity_tests
