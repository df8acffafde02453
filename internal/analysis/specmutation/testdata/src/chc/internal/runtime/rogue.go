// rogue.go is the failing fixture: a reconcile bypass calling a scaling
// internal outside the controller layer, and a new exported mutation
// surface on Chain.
package runtime

func (c *Chain) ScaleUpNow(v int) { // want "exported mutation surface"
	c.scaleOut(v)               // want "scaling internal"
	c.publish(func() { c.n++ }) // want "scaling internal"
}

// RecoverPrimary is the passing shape: failure recovery is not a
// deployment-shape mutation, so the verb is legal...
func (c *Chain) RecoverPrimary() {}

// Size is a plain read — no finding.
func (c *Chain) Size() int { return c.n }

func (c *Chain) allowedEscape(v int) {
	c.scaleIn(v) //chc:allow specmutation -- fixture: recorded imperative escape, action-logged by the caller
}

func (c *Chain) reasonlessEscape(v int) {
	//chc:allow specmutation // want "reasonless suppression"
	c.scaleIn(v) // want "scaling internal"
}
