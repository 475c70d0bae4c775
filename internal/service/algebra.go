package service

import (
	"errors"
	"fmt"

	"spanners"
	"spanners/internal/algebra"
	"spanners/internal/registry"
)

// This file is the service side of the spanner algebra: queries whose
// "algebra" field composes registered spanners with union / project /
// join (Theorem 4.5) and difference (budgeted determinization) on the
// server. Compositions are cached in the
// same LRU as inline expressions — under a disjoint key space — keyed
// by the canonical expression with every leaf pinned to its resolved
// content-addressed version, so a cache entry can never change
// meaning when a name's latest pointer moves. Leaves are rebuilt from
// their manifests' sources (stored artifacts carry no automaton) into
// a dedicated resident index, bypassing the expression LRU entirely:
// algebra traffic neither pollutes nor misses the inline-expression
// cache.

// The spanner LRU is shared by inline expressions and composed
// algebra expressions. The key spaces carry distinct prefixes because
// a canonical algebra expression ("join(a@…,b@…)") is also a
// syntactically valid RGX — without the prefix, an inline query for
// that literal text would be served the composed spanner (or vice
// versa).
const (
	exprKeyPrefix    = "e\x00"
	algebraKeyPrefix = "a\x00"
)

// AlgebraStats summarizes the algebra subsystem: how many algebra
// queries were resolved, how they split into composed-spanner cache
// hits vs fresh compositions, the leaf traffic behind the
// compositions (leaf_builds compiled or replanned a manifest source,
// leaf_hits reused a resident leaf), and the planner's work across
// every fresh composition (rewrites fired, common subexpressions
// composed once, registered artifacts pre-composed at startup). Leaf
// work is deliberately not part of the expression-cache counters.
type AlgebraStats struct {
	Queries      uint64 `json:"queries"`
	CacheHits    uint64 `json:"cache_hits"`
	Compositions uint64 `json:"compositions"`
	LeafBuilds   uint64 `json:"leaf_builds"`
	LeafHits     uint64 `json:"leaf_hits"`
	Registered   uint64 `json:"registered"`
	Rewrites     uint64 `json:"rewrites"`
	CSEHits      uint64 `json:"cse_hits"`
	Precomposed  uint64 `json:"precomposed"`
}

// AlgebraSpanner resolves an algebra expression to a composed, ready
// spanner: parse, pin every leaf to its current version, and serve
// the composition from the LRU under the pinned canonical key —
// composing through the registry only on a miss. Errors are typed:
// algebra.ErrSyntax / ErrUnbound / ErrDepth / ErrCycle for bad
// expressions, registry.ErrNotFound for unknown leaves.
func (s *Service) AlgebraSpanner(expr string) (*spanners.Spanner, error) {
	sp, _, _, err := s.algebraSpannerTracked(expr)
	return sp, err
}

// algebraSpannerTracked is AlgebraSpanner reporting whether this call
// performed the composition, and — when it did — the plan, whose
// per-operator timings the observed compile path records.
func (s *Service) algebraSpannerTracked(expr string) (*spanners.Spanner, *algebra.Plan, bool, error) {
	if s.reg == nil {
		return nil, nil, false, ErrNoRegistry
	}
	s.algebraQueries.Add(1)
	return s.composeAlgebra(expr)
}

// composeAlgebra is the shared composition path behind algebra
// queries and startup pre-composition: pin, serve from the LRU under
// the pinned canonical key, compose through the registry on a miss.
func (s *Service) composeAlgebra(expr string) (*spanners.Spanner, *algebra.Plan, bool, error) {
	pinned, err := s.pinExpr(expr)
	if err != nil {
		return nil, nil, false, err
	}
	key := pinned.Canonical()
	var plan *algebra.Plan
	sp, err := s.spanners.get(algebraKeyPrefix+key, func() (*spanners.Spanner, error) {
		p, err := algebra.BuildWith(pinned, s.leafResolver(), s.algebraOpts())
		if err != nil {
			return nil, err
		}
		plan = p
		s.recordPlan(p)
		s.recordEngine(p.Spanner)
		return p.Spanner.WithAlgebraSource(key), nil
	})
	if err != nil {
		return nil, nil, false, err
	}
	if plan != nil {
		s.algebraCompositions.Add(1)
	} else {
		s.algebraCacheHits.Add(1)
	}
	return sp, plan, plan != nil, nil
}

// algebraOpts is the planning policy every service composition runs
// under: optimizer on, difference budget from the configuration.
func (s *Service) algebraOpts() algebra.Options {
	return algebra.Options{Optimize: true, DifferenceBudget: s.cfg.DifferenceBudget}
}

// recordPlan counts one fresh plan's optimizer work into the stats
// and the per-rule counters.
func (s *Service) recordPlan(p *algebra.Plan) {
	s.algebraRewrites.Add(uint64(len(p.Rewrites)))
	s.algebraCSEHits.Add(uint64(p.CSEHits))
	for _, rw := range p.Rewrites {
		if c := s.algebraRuleFires[rw.Rule]; c != nil {
			c.Add(1)
		}
	}
}

// Precompose composes every registered algebra artifact into the
// spanner cache — the startup rung above Prewarm: where Prewarm
// decodes stored programs, Precompose re-plans each KindAlgebra
// manifest's pinned source, so the first query for a registered
// composition (and for any expression sharing its leaves) starts from
// a warm cache instead of paying the composition. Returns how many
// artifacts were composed; per-artifact failures are joined, and the
// rest still compose.
func (s *Service) Precompose() (int, error) {
	if s.reg == nil {
		return 0, ErrNoRegistry
	}
	mans, err := s.reg.List()
	if err != nil {
		return 0, err
	}
	var errs []error
	composed := 0
	for _, man := range mans {
		if man.Kind != registry.KindAlgebra {
			continue
		}
		if _, _, _, err := s.composeAlgebra(man.Source); err != nil {
			errs = append(errs, fmt.Errorf("precompose %s: %w", man.Ref(), err))
			continue
		}
		s.algebraPrecomposed.Add(1)
		composed++
	}
	return composed, errors.Join(errs...)
}

// RegisterAlgebra plans expr, persists the composed program under
// name as a first-class registry artifact of registry.KindAlgebra,
// and makes it immediately resolvable — both as a named query target
// and as a leaf of further algebra expressions. The manifest's source
// is the pinned canonical expression: content addressing freezes the
// leaves, so the stored text rebuilds the identical composition even
// after the leaves' latest pointers move on.
func (s *Service) RegisterAlgebra(name, expr string) (registry.Manifest, bool, error) {
	if s.reg == nil {
		return registry.Manifest{}, false, ErrNoRegistry
	}
	pinned, err := s.pinExpr(expr)
	if err != nil {
		return registry.Manifest{}, false, err
	}
	plan, err := algebra.BuildWith(pinned, s.leafResolver(), s.algebraOpts())
	if err != nil {
		return registry.Manifest{}, false, err
	}
	s.recordPlan(plan)
	man, created, err := s.reg.RegisterCompiled(name, plan.Spanner.WithAlgebraSource(plan.Pinned))
	if err != nil {
		return registry.Manifest{}, false, err
	}
	s.algebraRegistered.Add(1)
	// Read the stored artifact back (verifying the round trip) for
	// the named index, and keep the automaton-bearing composition
	// resident so the new name is immediately usable as a leaf.
	sp, man, _, err := s.loadNamed(man.Name, man.Version)
	if err != nil {
		return man, created, err
	}
	s.install(man, sp, true, false)
	s.namedMu.Lock()
	s.leaves[man.Ref()] = plan.Spanner.WithAlgebraSource(plan.Pinned)
	s.namedMu.Unlock()
	return man, created, nil
}

// pinExpr parses an algebra expression and pins every leaf to its
// current version — the shared front half of AlgebraSpanner and
// RegisterAlgebra.
func (s *Service) pinExpr(expr string) (algebra.Expr, error) {
	node, err := algebra.Parse(expr)
	if err != nil {
		return nil, err
	}
	return algebra.Pin(node, s.latestVersion)
}

// latestVersion pins an unpinned leaf: the in-memory latest pointer
// when the name is known, the registry's latest file otherwise (the
// result is remembered, so steady-state pinning never touches disk).
func (s *Service) latestVersion(name string) (string, error) {
	s.namedMu.Lock()
	v := s.latest[name]
	s.namedMu.Unlock()
	if v != "" {
		return v, nil
	}
	man, err := s.reg.Manifest(name, "")
	if err != nil {
		return "", err
	}
	s.namedMu.Lock()
	if s.latest[name] == "" {
		s.latest[name] = man.Version
	}
	s.namedMu.Unlock()
	return man.Version, nil
}

// leafResolver builds the per-request resolver: resolution logic
// lives in algebra.RegistryResolver; the service grafts on its
// resident leaf index and counters. A named-index entry doubles as a
// leaf when it carries an automaton (a source-fallback recompile
// does; a decoded artifact does not).
func (s *Service) leafResolver() *algebra.RegistryResolver {
	return &algebra.RegistryResolver{
		Reg:  s.reg,
		Opts: s.algebraOpts(),
		Lookup: func(ref string) *spanners.Spanner {
			s.namedMu.Lock()
			sp := s.leaves[ref]
			if sp == nil {
				if named := s.named[ref]; named != nil && named.Automaton() != nil {
					sp = named
				}
			}
			s.namedMu.Unlock()
			if sp != nil {
				s.algebraLeafHits.Add(1)
			}
			return sp
		},
		Store: func(ref string, sp *spanners.Spanner) {
			s.namedMu.Lock()
			s.leaves[ref] = sp
			s.namedMu.Unlock()
		},
		OnBuild: func(registry.Manifest) { s.algebraLeafBuilds.Add(1) },
	}
}
