// manager.go defines the Chain scaling primitives; as the defining file
// it may call them freely.
package runtime

type Chain struct{ n int }

func (c *Chain) scaleOut(v int) { c.publish(func() { c.n++ }) }

func (c *Chain) publish(edit func()) { edit() }

func (c *Chain) scaleIn(v int) {
	c.n--
	c.scaleOut(v) // primitives may compose inside manager.go
}
