package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"

	"samnet/internal/service"
)

// Profile sync: replicas exchange profiles by shipping snapshot records —
// the ProfileResponse document that GET /v1/profiles/{name} exports and
// PUT /v1/profiles/{name} installs, byte-identical to a snapshot file line
// (DESIGN §10). Two mechanisms move records to where placement says they
// belong:
//
//   - Pull-on-miss: when the owner answers 404 for a profile-scoped request,
//     the gateway walks the profile's rank order looking for a replica that
//     still holds it (a former owner after a membership change, or a
//     survivor of a failover window), ships the record to the owner, and
//     retries the original request once.
//   - Anti-entropy: a periodic pass lists every replica's profiles, computes
//     each profile's effective owner, and ships records the owner is
//     missing. Sources are left intact — stale copies are harmless (they are
//     only read if placement moves back) and deleting them would turn a
//     transient health flap into data loss.

// shipProfile copies profile name from one replica to another: GET the
// snapshot record from src, PUT it to dst. The record travels verbatim, so
// what the destination installs is byte-identical to the source's export.
func (c *Client) shipProfile(ctx context.Context, src, dst, name string) error {
	resp, err := c.do(ctx, http.MethodGet, src+"/v1/profiles/"+name, "", nil, true)
	if err != nil {
		return fmt.Errorf("pull %s from %s: %w", name, src, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pull %s from %s: %w", name, src, statusError(resp))
	}
	record, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("pull %s from %s: %w", name, src, err)
	}
	putResp, err := c.do(ctx, http.MethodPut, dst+"/v1/profiles/"+name, "application/json", record, true)
	if err != nil {
		return fmt.Errorf("ship %s to %s: %w", name, dst, err)
	}
	defer putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		return fmt.Errorf("ship %s to %s: %w", name, dst, statusError(putResp))
	}
	return nil
}

// pullOnMiss repairs a 404 at the effective owner: scan the rest of the rank
// order for a holder and ship the record over. Reports whether a repair
// happened (so the caller can retry the original request).
func (g *Gateway) pullOnMiss(ctx context.Context, name string, rank []string) bool {
	owner := rank[0]
	for _, src := range rank[1:] {
		if !g.fleet.Healthy(src) {
			continue
		}
		err := g.client.shipProfile(ctx, src, owner, name)
		if err == nil {
			g.metrics.pulls.Inc()
			g.logger.Info("pull-on-miss repaired profile", "profile", name, "from", src, "to", owner)
			return true
		}
		g.metrics.pullErrs.Inc()
		g.logger.Debug("pull-on-miss source failed", "profile", name, "from", src, "err", err)
	}
	return false
}

// syncOnce runs one anti-entropy pass and returns how many records it
// shipped. For every trained profile resident anywhere in the fleet, the
// effective owner is computed and, if the owner does not hold the profile,
// the record is shipped from the best-ranked holder (so repeated passes are
// deterministic about their source).
func (g *Gateway) syncOnce(ctx context.Context) (shipped int) {
	holders := make(map[string][]string) // profile -> replicas holding it
	for _, sc := range g.fanOut(ctx, "/v1/profiles") {
		var infos []service.ProfileInfo
		if sc.err == nil {
			sc.err = json.Unmarshal(sc.body, &infos)
		}
		if sc.err != nil {
			g.logger.Debug("anti-entropy list failed", "replica", sc.addr, "err", sc.err)
			continue
		}
		for _, info := range infos {
			if info.Trained {
				holders[info.Name] = append(holders[info.Name], sc.addr)
			}
		}
	}
	for name, held := range holders {
		rank := g.fleet.RankHealthy(name, nil)
		owner := rank[0]
		if !g.fleet.Healthy(owner) || slices.Contains(held, owner) {
			continue
		}
		src := rank[slices.IndexFunc(rank, func(addr string) bool { return slices.Contains(held, addr) })]
		if err := g.client.shipProfile(ctx, src, owner, name); err != nil {
			g.metrics.pullErrs.Inc()
			g.logger.Warn("anti-entropy ship failed", "profile", name, "from", src, "to", owner, "err", err)
			continue
		}
		g.metrics.syncCopies.Inc()
		shipped++
	}
	if shipped > 0 {
		g.logger.Info("anti-entropy pass shipped profiles", "count", shipped)
	}
	return shipped
}
