module Setup = Sc_ibc.Setup
module Ibs = Sc_ibc.Ibs
module Dvs = Sc_ibc.Dvs

type signed_block = {
  block : Block.t;
  u : Sc_ec.Curve.point;
  sigma_cs : Sc_pairing.Tate.gt;
  sigma_da : Sc_pairing.Tate.gt;
}

type upload = { file : string; owner : string; blocks : signed_block array }

let sign_designated pub key ~bytes_source ~cs ~da msg =
  let u, k = Ibs.commit pub key ~bytes_source msg in
  u, Dvs.sigma cs k, Dvs.sigma da k

(* The tables pay for themselves from the second block on; every
   upload the protocols make has more. *)
let sign_file pub (key : Setup.identity_key) ~bytes_source ~cs_id ~da_id ~file
    payloads =
  let cs = Dvs.table pub key ~verifier:cs_id in
  let da = Dvs.table pub key ~verifier:da_id in
  let sign_one index data =
    let block = { Block.file; index; data } in
    let u, sigma_cs, sigma_da =
      sign_designated pub key ~bytes_source ~cs ~da (Block.signing_message block)
    in
    { block; u; sigma_cs; sigma_da }
  in
  { file; owner = key.Setup.id; blocks = Array.of_list (List.mapi sign_one payloads) }

let dvs_for role sb =
  match role with
  | `Cs -> { Dvs.u = sb.u; sigma = sb.sigma_cs }
  | `Da -> { Dvs.u = sb.u; sigma = sb.sigma_da }

let verifier pub ~verifier_key ~role ~owner =
  let check = Dvs.verifier pub ~verifier_key ~signer:owner in
  fun claimed sb ->
    check ~msg:(Block.signing_message claimed) (dvs_for role sb)

let verify_block pub ~verifier_key ~role ~owner claimed sb =
  verifier pub ~verifier_key ~role ~owner claimed sb
