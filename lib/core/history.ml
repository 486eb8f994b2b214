module Tbl = Afex_faultspace.Point.Tbl

type t = unit Tbl.t

let create () = Tbl.create 1024
let mem t p = Tbl.mem t p
let add t p = Tbl.replace t p ()
let size t = Tbl.length t
