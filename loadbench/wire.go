package main

import (
	"encoding/json"

	"hetopt/internal/core"
	"hetopt/internal/graph"
	"hetopt/internal/serve"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

type (
	canonical  = serve.TuneRequest
	resultWire = serve.TuneResult
)

// The renderers below restate the service's wire conversion of a
// core.Result and a graph.Result field by field. The service's own
// converters are unexported; restating them here is what lets the
// benchmark demand byte-identity between a served answer and a direct
// computation, so a change to the wire format shows up as failures.

func configWire(c space.Config) serve.ConfigWire {
	return serve.ConfigWire{
		HostThreads:    c.HostThreads,
		HostAffinity:   c.HostAffinity.String(),
		DeviceThreads:  c.DeviceThreads,
		DeviceAffinity: c.DeviceAffinity.String(),
		HostFraction:   c.HostFraction,
	}
}

func certificateWire(c *strategy.Certificate) *serve.CertificateWire {
	if c == nil {
		return nil
	}
	return &serve.CertificateWire{Optimal: c.Optimal, LowerBound: c.LowerBound, Gap: c.Gap, Explored: c.Explored, Pruned: c.Pruned}
}

func coreResultWire(res core.Result) resultWire {
	var pool []serve.PoolEntryWire
	for _, e := range res.Pool {
		cw := configWire(e.Config)
		pool = append(pool, serve.PoolEntryWire{Config: &cw, Distribution: e.Config.String(), Objective: e.Objective})
	}
	return resultWire{
		Certificate:       certificateWire(res.Cert),
		Pool:              pool,
		Method:            res.Method.String(),
		Config:            configWire(res.Config),
		Distribution:      res.Config.String(),
		SearchObjective:   res.SearchE,
		TimeSec:           res.Measured.E(),
		HostSec:           res.Measured.Host,
		DeviceSec:         res.Measured.Device,
		EnergyJ:           res.MeasuredEnergy.Total(),
		HostJ:             res.MeasuredEnergy.Host,
		DeviceJ:           res.MeasuredEnergy.Device,
		Objective:         res.Objective,
		MeasuredObjective: res.MeasuredObjective,
		SearchEvaluations: res.SearchEvaluations,
		Experiments:       res.Experiments,
	}
}

func dagResultWire(method core.Method, sim *graph.Sim, res graph.Result) resultWire {
	rep := sim.Report(res.Placement)
	host, device := sim.SideNames()
	hostCfg, devCfg := sim.SideConfigs()
	pw := &serve.PlacementWire{
		Encoded:       graph.PlacementString(res.Placement),
		MakespanSec:   res.MakespanSec,
		HostOnlySec:   res.HostOnlySec,
		DeviceOnlySec: res.DeviceOnlySec,
		RoundRobinSec: res.RoundRobinSec,
		SpeedupVsHost: res.SpeedupVsHost(),
	}
	w := sim.Workload()
	for i, side := range res.Placement {
		name := host
		if side&1 == graph.SideDevice {
			name = device
		}
		pw.Nodes = append(pw.Nodes, serve.NodePlacementWire{Name: w.Nodes[i].Name, Device: name})
	}
	var pool []serve.PoolEntryWire
	for _, e := range res.Pool {
		pool = append(pool, serve.PoolEntryWire{Encoded: graph.PlacementString(e.State), Distribution: sim.FormatPlacement(e.State), Objective: e.Energy})
	}
	return resultWire{
		Certificate: certificateWire(res.Cert),
		Pool:        pool,
		Method:      method.String(),
		Config: serve.ConfigWire{
			HostThreads:    hostCfg.Threads,
			HostAffinity:   hostCfg.Affinity.String(),
			DeviceThreads:  devCfg.Threads,
			DeviceAffinity: devCfg.Affinity.String(),
			HostFraction:   sim.HostWorkFraction(res.Placement),
		},
		Distribution:      sim.FormatPlacement(res.Placement),
		SearchObjective:   res.MakespanSec,
		TimeSec:           res.MakespanSec,
		HostSec:           rep.HostBusySec,
		DeviceSec:         rep.DeviceBusySec,
		Objective:         "time",
		MeasuredObjective: res.MakespanSec,
		SearchEvaluations: res.Evaluations,
		Experiments:       res.Evaluations,
		Placement:         pw,
	}
}

// statusWire is serve.JobStatus with the result kept as raw bytes, so
// answers are compared byte for byte rather than after a decode.
type statusWire struct {
	ID      string          `json:"id,omitempty"`
	State   serve.JobState  `json:"state"`
	Cached  bool            `json:"cached"`
	Request canonical       `json:"request"`
	Key     string          `json:"key"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
}

type batchWire struct {
	Jobs []statusWire `json:"jobs"`
}

// warmBody is the response a warm hit on m answers with: the terminal
// cached status around the result bytes, newline-terminated.
func warmBody(m member, result []byte) ([]byte, error) {
	b, err := json.Marshal(statusWire{State: serve.JobDone, Cached: true, Request: m.req, Key: m.key, Result: result})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
