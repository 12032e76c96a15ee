package energysched

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// Accounting wire types and client calls: the energy/SLA time-series
// (GET /v1/fleets/{id}/series), the per-job lifecycle journeys
// (GET .../journeys, GET .../jobs/{id}/journey) and the SLO burn-rate
// alerts (GET /v1/alerts). These mirror the structs the server
// marshals; round-trip tests in accounting_test.go pin the two sides
// together.

// SeriesClassSample is one node class's slice of an accounting sample.
type SeriesClassSample struct {
	// Class is the node class name.
	Class string `json:"class"`
	// Watts is the class's aggregate power draw at the sample instant;
	// KWh its cumulative energy since the run started.
	Watts float64 `json:"watts"`
	KWh   float64 `json:"kwh"`
	// On counts nodes powered on (booting included), Working the
	// subset hosting active VMs, Off the nodes powered down.
	On      int `json:"on"`
	Working int `json:"working"`
	Off     int `json:"off"`
}

// SeriesSample is one accounting observation at a simulated-interval
// boundary.
type SeriesSample struct {
	// T is the virtual time of the sample, in seconds.
	T float64 `json:"t"`
	// Watts is the fleet's total power draw at T; KWh the cumulative
	// energy consumed up to T.
	Watts float64 `json:"watts"`
	KWh   float64 `json:"kwh"`
	// SLA is the mean SLA satisfaction percentage of completed jobs.
	SLA float64 `json:"sla_pct"`
	// Utilization is reserved CPU as a percentage of online capacity.
	Utilization float64 `json:"utilization_pct"`
	// Queue is the number of jobs waiting for placement, Running the
	// VMs currently executing (migrations included).
	Queue   int `json:"queue"`
	Running int `json:"running"`
	// On/Working/Off are fleet-wide node counts (On includes booting).
	On      int `json:"nodes_on"`
	Working int `json:"nodes_working"`
	Off     int `json:"nodes_off"`
	// Migrations and Completed are cumulative counters; their slope is
	// the churn.
	Migrations int `json:"migrations_total"`
	Completed  int `json:"completed_total"`
	// Classes is the per-node-class breakdown.
	Classes []SeriesClassSample `json:"classes,omitempty"`
}

// SeriesPoint is one (time, value) pair of a single-metric query.
type SeriesPoint struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// SeriesSnapshot is the response of GET /v1/fleets/{id}/series: full
// samples by default, (t, v) points when the query named a metric.
type SeriesSnapshot struct {
	// Metric echoes the query's metric selection ("" = full samples).
	Metric string `json:"metric,omitempty"`
	// Count is the number of samples ever recorded, including those
	// evicted from the daemon's bounded ring.
	Count   uint64         `json:"count"`
	Samples []SeriesSample `json:"samples,omitempty"`
	Points  []SeriesPoint  `json:"points,omitempty"`
}

// SeriesQuery selects a slice of the accounting time-series.
type SeriesQuery struct {
	// Metric selects a single metric ("" = full samples): watts, kwh,
	// sla_pct, utilization_pct, queue, running, nodes_on,
	// nodes_working, nodes_off, migrations or completed.
	Metric string
	// Since drops samples before this virtual time (seconds).
	Since float64
	// Step downsamples to one sample per step-second bucket (0 = raw).
	Step float64
}

// JourneyStep is one lifecycle transition of a job, stamped with the
// simulation's virtual time.
type JourneyStep struct {
	// T is the virtual time of the transition, in seconds.
	T float64 `json:"t"`
	// Kind is submitted, placed, running, migrate, migrated, requeued,
	// completed or violated.
	Kind string `json:"kind"`
	// Node is the node involved (-1 when the step is not node-bound);
	// Dest is the migration destination (-1 otherwise).
	Node int `json:"node"`
	Dest int `json:"dest"`
	// Why is the solver's score comparison behind a placed or migrate
	// step, when decision tracing supplied one.
	Why *TraceAction `json:"why,omitempty"`
	// Satisfaction and EnergyKWh are set on terminal steps only.
	Satisfaction float64 `json:"satisfaction_pct,omitempty"`
	EnergyKWh    float64 `json:"energy_kwh,omitempty"`
}

// JobJourney is one job's recorded lifecycle audit span
// (GET /v1/fleets/{id}/jobs/{jobID}/journey).
type JobJourney struct {
	Job   int           `json:"job"`
	Steps []JourneyStep `json:"steps"`
	// Truncated reports that the per-job step cap was hit and later
	// steps were dropped from the stored record.
	Truncated bool `json:"truncated,omitempty"`
	// Outcome is "" while in flight, then "completed" or "violated".
	Outcome string `json:"outcome,omitempty"`
	// EnergyKWh is the host energy attributed to the job (live so far
	// for an in-flight job, final on a terminal record).
	EnergyKWh float64 `json:"energy_kwh"`
	// Satisfaction is the SLA satisfaction percentage after completion.
	Satisfaction float64 `json:"satisfaction_pct,omitempty"`
}

// JourneySummary is the steps-free form served by the journeys index.
type JourneySummary struct {
	Job          int     `json:"job"`
	Steps        int     `json:"steps"`
	Truncated    bool    `json:"truncated,omitempty"`
	Outcome      string  `json:"outcome,omitempty"`
	EnergyKWh    float64 `json:"energy_kwh"`
	Satisfaction float64 `json:"satisfaction_pct,omitempty"`
}

// JourneysSnapshot is the response of GET /v1/fleets/{id}/journeys.
type JourneysSnapshot struct {
	// Seq is the journey firehose's head sequence number.
	Seq      uint64           `json:"seq"`
	Journeys []JourneySummary `json:"journeys"`
}

// JourneyEvent is one journey firehose event
// (GET /v1/fleets/{id}/journeys?follow=1): a lifecycle step flattened
// with its ring sequence number and job ID.
type JourneyEvent struct {
	Seq uint64 `json:"seq"`
	Job int    `json:"job"`
	JourneyStep
}

// AlertStatus is one SLO objective's burn-rate verdict.
type AlertStatus struct {
	// Name is the objective's name; Metric the series metric it
	// watches.
	Name   string `json:"name"`
	Metric string `json:"metric"`
	// State is "ok" or "firing".
	State string `json:"state"`
	// Since is the virtual time the current firing episode started
	// (only while firing).
	Since float64 `json:"since_s,omitempty"`
	// Value is the metric's latest observation.
	Value float64 `json:"value"`
	// ShortBurn and LongBurn are the burn rates of the two windows
	// (fraction of error budget consumed per window, >1 = over budget);
	// Budget is the objective's allowed violation fraction.
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Budget    float64 `json:"budget"`
	// FiredTotal and ClearedTotal count state transitions, for
	// post-run assertions.
	FiredTotal   int `json:"fired_total"`
	ClearedTotal int `json:"cleared_total"`
}

// FleetAlert is one objective's verdict tagged with its fleet.
type FleetAlert struct {
	Fleet string `json:"fleet"`
	AlertStatus
}

// AlertsSnapshot is the response of GET /v1/alerts: the number of
// objectives currently firing and every objective's verdict.
type AlertsSnapshot struct {
	Firing int          `json:"firing"`
	Alerts []FleetAlert `json:"alerts"`
}

// Series fetches the fleet's accounting time-series
// (GET /v1/series?metric=&since=&step=).
func (c *Client) Series(ctx context.Context, q SeriesQuery) (SeriesSnapshot, error) {
	params := url.Values{}
	if q.Metric != "" {
		params.Set("metric", q.Metric)
	}
	if q.Since > 0 {
		params.Set("since", strconv.FormatFloat(q.Since, 'g', -1, 64))
	}
	if q.Step > 0 {
		params.Set("step", strconv.FormatFloat(q.Step, 'g', -1, 64))
	}
	path := c.apiPath("/series")
	if enc := params.Encode(); enc != "" {
		path += "?" + enc
	}
	var snap SeriesSnapshot
	err := c.call(ctx, http.MethodGet, path, nil, &snap)
	return snap, err
}

// Journeys fetches the fleet's journey index (GET /v1/journeys).
func (c *Client) Journeys(ctx context.Context) (JourneysSnapshot, error) {
	var snap JourneysSnapshot
	err := c.call(ctx, http.MethodGet, c.apiPath("/journeys"), nil, &snap)
	return snap, err
}

// Journey fetches one job's lifecycle audit span
// (GET /v1/jobs/{id}/journey). 404 when the daemon recorded no journey
// for the job — it was admitted before the daemon started, or evicted
// from the bounded store.
func (c *Client) Journey(ctx context.Context, id int) (JobJourney, error) {
	var j JobJourney
	err := c.call(ctx, http.MethodGet, c.apiPath("/jobs/"+strconv.Itoa(id)+"/journey"), nil, &j)
	return j, err
}

// JourneyTail subscribes to the fleet's journey firehose
// (GET /v1/journeys?follow=1, server-sent events) and calls fn for
// every lifecycle step until ctx is cancelled, the stream ends, or fn
// returns a non-nil error (which is returned). since > 0 replays the
// retained backlog from that sequence number first.
func (c *Client) JourneyTail(ctx context.Context, since uint64, fn func(ev JourneyEvent) error) error {
	path := c.apiPath("/journeys") + "?follow=1"
	if since > 0 {
		path += "&since=" + strconv.FormatUint(since, 10)
	}
	return c.readSSE(ctx, path, "journey", func(_ uint64, data []byte) error {
		var ev JourneyEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("energysched: decoding journey step: %w", err)
		}
		return fn(ev)
	})
}

// Alerts fetches the SLO burn-rate verdicts: every fleet's objectives
// on a base client (GET /v1/alerts), one fleet's on a Fleet-scoped
// client (GET /v1/fleets/{id}/alerts).
func (c *Client) Alerts(ctx context.Context) (AlertsSnapshot, error) {
	path := "/v1/alerts"
	if c.prefix != "" {
		path = c.prefix + "/alerts"
	}
	var snap AlertsSnapshot
	err := c.call(ctx, http.MethodGet, path, nil, &snap)
	return snap, err
}
