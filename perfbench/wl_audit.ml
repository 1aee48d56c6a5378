(* audit: the designated agency's read path, one closed-loop client.

   Every file is signed and stored during set-up, across several
   owners and servers; a seeded subset is then corrupted in every
   block, so any sample covers a bad block and each verdict has a
   known right answer.  The timed loop interleaves three audits:
   storage audits over the wire (8 samples), a compute request plus
   its Algorithm-1 audit (16 tasks, 8 samples), and a rank-proof
   audit of a dynamic file (8 samples).  Verification dominates and
   no signing is timed. *)

open Common
module System = Seccloud.System
module Dynamic = Sc_storage.Dynamic
module Da = Seccloud.Endpoint.Da
module Protocol = Sc_audit.Protocol

let owners = [ "owner-0"; "owner-1"; "owner-2" ]
let servers = [ "cs-0"; "cs-1" ]
let files_per_pair = 2
let blocks_per_file = 16
let samples = 8
let n_tasks = 16

type file = {
  owner : string;
  name : string;
  transport : Seccloud.Transport.t;
  corrupt : bool;
}

type dyn_file = {
  d_owner : string;
  d_name : string;
  server : Dynamic.server;
  statement : string * Sc_ibc.Ibs.t;
  d_corrupt : bool;
}

type state = {
  system : System.t;
  da : Da.t;
  files : file array;
  dyn : dyn_file array;
  warrants : (string * Sc_ibc.Warrant.signed) list;
  rng : Random.State.t;
  drbg : Sc_hash.Drbg.t;  (* compute services and dynamic samples *)
}

(* Numeric payloads, so compute tasks have something to evaluate. *)
let numeric_payload rng =
  Sc_storage.Block.encode_ints (List.init 8 (fun _ -> Random.State.int rng 1000))

let flip s =
  String.mapi (fun i c -> if i = String.length s - 1 then Char.chr (Char.code c lxor 1) else c) s

let setup ~seed =
  let system =
    System.create ~params:Sc_pairing.Params.small ~seed:("audit:" ^ seed)
      ~cs_ids:servers ~da_id:"da" ()
  in
  let rng = rng_of_seed ("audit:" ^ seed) in
  let pub = System.public system in
  let users = List.map (fun o -> o, Seccloud.User.create system ~id:o) owners in
  let files =
    List.concat_map
      (fun cs_id ->
        let cloud = Seccloud.Cloud.create system ~id:cs_id () in
        let server = Seccloud.Endpoint.Server.create system cloud in
        let transport =
          Seccloud.Transport.create ~peer:cs_id ~public:pub
            ~handler:(Seccloud.Endpoint.Server.handle server)
            ()
        in
        List.concat_map
          (fun (owner, user) ->
            List.init files_per_pair (fun k ->
                let name = Printf.sprintf "%s/%s/%d" owner cs_id k in
                let upload =
                  Seccloud.User.sign_file user ~cs_id ~file:name
                    (List.init blocks_per_file (fun _ -> numeric_payload rng))
                in
                if not (Seccloud.Cloud.accept_upload cloud upload) then
                  failwith (name ^ ": honest upload refused in set-up");
                { owner; name; transport; corrupt = false }, cloud, upload))
          users)
      servers
    |> Array.of_list
  in
  (* A seeded quarter of the files, never none: every stored block is
     re-stored with its last payload bit flipped, keeping the
     signatures, the way a cheating server would. *)
  let n = Array.length files in
  let bad = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let v = bad.(i) in
    bad.(i) <- bad.(j);
    bad.(j) <- v
  done;
  let bad = Array.sub bad 0 (max 1 (n / 4)) in
  Array.iter
    (fun i ->
      let f, cloud, upload = files.(i) in
      let blocks =
        Array.map
          (fun sb ->
            let b = sb.Sc_storage.Signer.block in
            {
              sb with
              Sc_storage.Signer.block =
                { b with Sc_storage.Block.data = flip b.Sc_storage.Block.data };
            })
          upload.Sc_storage.Signer.blocks
      in
      Seccloud.Cloud.accept_upload_unchecked cloud { upload with blocks };
      files.(i) <- { f with corrupt = true }, cloud, upload)
    bad;
  let files = Array.map (fun (f, _, _) -> f) files in
  let bad_dyn = Random.State.int rng (List.length owners) in
  let dyn =
    Array.of_list
      (List.mapi
         (fun i owner ->
           let key = System.register_user system owner in
           let dc, ds =
             Dynamic.init pub key ~bytes_source:(System.bytes_source system)
               ~cs_id:"cs-0" ~da_id:"da" ~file:(owner ^ "/dynamic")
               (List.init blocks_per_file (fun _ -> numeric_payload rng))
           in
           let d_corrupt = i = bad_dyn in
           {
             d_owner = owner;
             d_name = owner ^ "/dynamic";
             server = ds;
             statement =
               Dynamic.publish_root dc ~bytes_source:(System.bytes_source system);
             d_corrupt;
           })
         owners)
  in
  Array.iter
    (fun d ->
      if d.d_corrupt then
        for i = 0 to Dynamic.server_count d.server - 1 do
          Dynamic.corrupt_entry d.server i
        done)
    dyn;
  {
    system;
    da = Da.create system;
    files;
    dyn;
    warrants =
      List.map
        (fun (o, u) ->
          o, Seccloud.User.delegate_audit u ~now:0. ~lifetime:1e9 ~scope:"audit")
        users;
    rng;
    drbg = Sc_hash.Drbg.create ~seed:("audit-drbg:" ^ seed);
  }

(* Sample [k] distinct block indices. *)
let indices rng ~n ~k =
  let a = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let v = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- v
  done;
  Array.to_list (Array.sub a 0 k)

let measure st ~spans ~seconds =
  let storage_lat = Fbuf.create ()
  and compute_lat = Fbuf.create ()
  and dynamic_lat = Fbuf.create () in
  let missed = ref 0 and false_alarms = ref 0 and failed = ref 0 in
  let violations = ref [] in
  let judge ~what ~corrupt ~intact =
    if corrupt && intact then begin
      incr missed;
      violations := (what ^ ": corruption missed") :: !violations
    end
    else if (not corrupt) && not intact then begin
      incr false_alarms;
      violations := (what ^ ": false alarm") :: !violations
    end
  in
  let speed = Speed.create () in
  let timed buf f = Speed.time speed buf f in
  let pub = System.public st.system in
  let pick a = a.(Random.State.int st.rng (Array.length a)) in
  let start = now () in
  let deadline = start +. seconds in
  let op = ref 0 in
  while now () < deadline do
    incr op;
    let op = !op in
    (match op mod 3 with
    | 0 ->
      let f = pick st.files in
      let indices = indices st.rng ~n:blocks_per_file ~k:samples in
      let report =
        Spans.wrap spans ~layer:"bench" ~name:"op.storage_audit" ~op (fun () ->
            timed storage_lat (fun () ->
                Spans.wrap spans ~layer:"seccloud"
                  ~name:"da.audit_storage_over_wire" ~op (fun () ->
                    Da.audit_storage_over_wire st.da ~transport:f.transport
                      ~owner:f.owner ~file:f.name ~indices)))
      in
      if report.Seccloud.Agency.channel <> None then begin
        incr failed;
        violations := (f.name ^ ": channel blamed") :: !violations
      end;
      judge ~what:f.name ~corrupt:f.corrupt ~intact:report.Seccloud.Agency.intact
    | 1 ->
      let f = pick st.files in
      let service =
        Sc_compute.Task.random_service ~drbg:st.drbg ~n_positions:blocks_per_file
          ~n_tasks
      in
      let warrant = List.assoc f.owner st.warrants in
      let verdict =
        Spans.wrap spans ~layer:"bench" ~name:"op.compute_audit" ~op (fun () ->
            timed compute_lat (fun () ->
                match
                  Spans.wrap spans ~layer:"seccloud" ~name:"transport.call" ~op
                    (fun () ->
                      Seccloud.Transport.call f.transport
                        ~expect:"compute_commitment"
                        (Seccloud.Wire.Compute_request
                           { owner = f.owner; file = f.name; service }))
                with
                | Ok (Seccloud.Wire.Compute_commitment { commitment; _ }) ->
                  Some
                    (Spans.wrap spans ~layer:"seccloud"
                       ~name:"da.audit_computation_over_wire" ~op (fun () ->
                         Da.audit_computation_over_wire st.da
                           ~transport:f.transport ~owner:f.owner ~file:f.name
                           ~commitment ~warrant
                           ~now:(Seccloud.Transport.now f.transport)
                           ~samples))
                | Ok _ | Error _ -> None))
      in
      (match verdict with
      | None ->
        incr failed;
        violations := (f.name ^ ": compute request failed") :: !violations
      | Some v ->
        if List.exists Protocol.is_transport_failure v.Protocol.failures then begin
          incr failed;
          violations := (f.name ^ ": channel blamed") :: !violations
        end;
        judge ~what:(f.name ^ " compute") ~corrupt:f.corrupt ~intact:v.Protocol.valid)
    | _ ->
      let d = pick st.dyn in
      let report =
        Spans.wrap spans ~layer:"bench" ~name:"op.dynamic_audit" ~op (fun () ->
            timed dynamic_lat (fun () ->
                Spans.wrap spans ~layer:"sc_storage" ~name:"dynamic.audit" ~op
                  (fun () ->
                    Dynamic.audit pub
                      ~verifier_key:(System.da_key st.system)
                      ~owner:d.d_owner ~file:d.d_name ~root_statement:d.statement
                      d.server ~drbg:st.drbg ~samples)))
      in
      judge ~what:d.d_name ~corrupt:d.d_corrupt ~intact:report.Dynamic.intact)
  done;
  let wall = now () -. start in
  Speed.finish speed;
  let ops = Fbuf.length storage_lat + Fbuf.length compute_lat + Fbuf.length dynamic_lat in
  (* Audits per second of the program's calls at reference speed. *)
  let audits_per_s =
    float_of_int ops /. (sum storage_lat +. sum compute_lat +. sum dynamic_lat)
  in
  {
    attempted = ops;
    failed = !failed + !missed + !false_alarms;
    violations = List.rev !violations;
    ops;
    blocks = ops * samples;
    wall;
    busy = speed.Speed.cpu;
    e2e = [ "throughput_per_s", audits_per_s ];
    series =
      [
        { role = "primary"; label = "storage_audit"; pct = 90.; samples = storage_lat };
        { role = "secondary"; label = "compute_audit"; pct = 90.; samples = compute_lat };
        { role = "dynamic"; label = "dynamic_audit"; pct = 90.; samples = dynamic_lat };
      ];
    layer = [];
    notes =
      [
        "audits_per_s", Printf.sprintf "%.4f" audits_per_s;
        "audits_per_cpu_s", Printf.sprintf "%.4f" (float_of_int ops /. speed.Speed.cpu);
        "audits_per_wall_s", Printf.sprintf "%.4f" (float_of_int ops /. wall);
        "missed", string_of_int !missed;
        "false_alarms", string_of_int !false_alarms;
      ]
      @ Speed.notes speed;
  }
