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
  ]

let suite = pool_tests @ telemetry_tests @ identity_tests
