module Sensor = Afex_injector.Sensor
module Precision = Afex_quality.Precision

let impact_precision executor ~sensor ~trials scenario =
  Precision.measure ~trials (fun () ->
      let outcome = executor.Executor.run_scenario scenario in
      sensor.Sensor.score { Sensor.outcome; new_blocks = 0 })

let top_faults executor ~sensor ~trials ~n result =
  List.map
    (fun (case : Test_case.t) ->
      let scenario = Afex_injector.Fault.to_scenario case.Test_case.fault in
      (case, impact_precision executor ~sensor ~trials scenario))
    (Session.top_faults result ~n)
